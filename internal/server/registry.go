// Package server is the network-manager daemon: a multi-tenant HTTP
// service hosting named wsan networks and running the expensive pipeline
// operations — schedule generation, simulation, convergence runs, and
// management-loop iterations — as asynchronous jobs on a bounded worker
// pool. Completed outputs land in a content-addressed artifact store keyed
// by the producing request, so identical submissions are cache hits.
//
// The package sits on the public wsan facade and runs the job kinds of
// internal/jobs, which the wsansim CLI runs too (plus the obs layer it
// shares with the rest of the pipeline); it is the service skin of the
// library, not a second implementation. Its wire format is wsanclient's:
// the daemon encodes the client's types rather than declaring its own.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"wsan/internal/jobs"
	"wsan/wsanclient"
)

// netEntry is one hosted network: the immutable jobs.Network (the
// wsan.Network plus the exact survey JSON its artifacts embed) under its
// tenant-chosen name.
type netEntry struct {
	*jobs.Network
	// Name is the tenant-chosen handle.
	Name string
	// Hash identifies the network content (survey bytes + channel count +
	// options) for artifact addressing.
	Hash string
	// Created is the registration time.
	Created time.Time
}

// view builds the API description of an entry.
func (e *netEntry) view() wsanclient.Network {
	return wsanclient.Network{
		Name:          e.Name,
		Hash:          e.Hash,
		Nodes:         len(e.Net.Testbed().Nodes),
		Channels:      e.Net.Channels(),
		AccessPoints:  e.Net.AccessPoints(),
		CommEdges:     e.Net.CommEdges(),
		ReuseDiameter: e.Net.ReuseDiameter(),
		Created:       e.Created,
	}
}

// errExists marks a name collision on network creation (HTTP 409).
var errExists = errors.New("already exists")

// registry holds the hosted networks. Safe for concurrent use.
type registry struct {
	mu   sync.RWMutex
	nets map[string]*netEntry
}

func newRegistry() *registry { return &registry{nets: make(map[string]*netEntry)} }

// create builds a network from the request (see jobs.NewNetwork) and
// registers it under its name.
func (r *registry) create(req wsanclient.CreateNetworkRequest) (*netEntry, error) {
	if req.Name == "" {
		return nil, fmt.Errorf("network name is required")
	}
	nw, err := jobs.NewNetwork(req)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	h.Write(nw.Survey)
	fmt.Fprintf(h, "|ch=%d|prrt=%g|aps=%d", len(nw.Channels), req.PRRThreshold, req.AccessPoints)
	e := &netEntry{
		Network: nw,
		Name:    req.Name,
		Hash:    hex.EncodeToString(h.Sum(nil)),
		Created: time.Now(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nets[e.Name]; ok {
		return nil, fmt.Errorf("network %q %w", e.Name, errExists)
	}
	r.nets[e.Name] = e
	return e, nil
}

// get looks a network up by name.
func (r *registry) get(name string) (*netEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.nets[name]
	return e, ok
}

// remove deregisters a network; jobs already running keep their references.
func (r *registry) remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nets[name]; !ok {
		return false
	}
	delete(r.nets, name)
	return true
}

// list returns every hosted network's view, sorted by name.
func (r *registry) list() []wsanclient.Network {
	r.mu.RLock()
	views := make([]wsanclient.Network, 0, len(r.nets))
	for _, e := range r.nets {
		views = append(views, e.view())
	}
	r.mu.RUnlock()
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	return views
}

// size returns the number of hosted networks.
func (r *registry) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nets)
}
