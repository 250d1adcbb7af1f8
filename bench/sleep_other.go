//go:build !linux

package main

import "time"

// sleepUntil blocks until t, with the runtime timer's precision.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
