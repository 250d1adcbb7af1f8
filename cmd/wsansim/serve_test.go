package main

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"wsan/internal/server"
)

// TestServeBannerReportsRealPool starts a daemon the way `serve -workers 0
// -queue 0` does and checks that the start-up line reports the pool New
// built (GOMAXPROCS workers, a 64-job queue), not the flag values.
func TestServeBannerReportsRealPool(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 0, QueueCap: 0, MetricsInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	want := fmt.Sprintf("wsansim serve: listening on :8080 (workers=%d queue=64)", runtime.GOMAXPROCS(0))
	if got := serveBanner(":8080", srv); got != want {
		t.Errorf("banner %q, want %q", got, want)
	}
}
