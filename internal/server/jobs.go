package server

import (
	"context"
	"encoding/json"
	"fmt"

	"wsan"
	"wsan/internal/jobs"
	"wsan/internal/obs"
	"wsan/wsanclient"
)

// The job kinds themselves live in internal/jobs, shared with the wsansim
// CLI; the daemon runs them against an environment built from a hosted
// network and the artifact store.

// canonicalParams validates and canonicalizes a raw parameter document for
// one job kind on a hosted network.
func (s *Server) canonicalParams(nw *netEntry, kind string, raw json.RawMessage) ([]byte, error) {
	return jobs.Canonical(s.jobEnv(nw, nil), kind, raw)
}

// runJob executes one dequeued job and stores its artifact under the job's
// content address. The worker pool calls it with the job's context; every
// long-running wsan operation underneath checks that context.
func (s *Server) runJob(ctx context.Context, j *Job) (string, error) {
	// Queued-duplicate probe: two identical submissions that both miss the
	// cache at submit time queue two jobs with one key, and the second to
	// run finds the first's artifact here. The store is content-addressed,
	// so that entry IS this job's output — return it rather than
	// recomputing and re-writing.
	if a, ok := s.store.Get(j.Key); ok {
		return a.ID, nil
	}
	nw, ok := s.nets.get(j.Network)
	if !ok {
		return "", fmt.Errorf("network %q was removed", j.Network)
	}
	parts, err := jobs.Run(ctx, s.jobEnv(nw, j), j.Kind, j.Params)
	if err != nil {
		return "", err
	}
	if _, err := s.store.Put(j.Key, j.Kind, parts); err != nil {
		// The computation succeeded but the artifact cannot be persisted
		// (e.g. the store directory's filesystem failed): the job fails
		// rather than claiming an artifact that is not servable.
		return "", fmt.Errorf("storing artifact: %w", err)
	}
	return j.Key, nil
}

// jobEnv builds the environment a job kind runs against on a hosted
// network: bundles are stored artifacts, and signals go to the server's
// registry. While the event bus has ever had a subscriber, a running job
// (j non-nil) also gets a tap forwarding faults.* counter flushes to the
// stream, and its manage iterations are published live.
// The gate keeps the subscriber-free job path allocation-free; a consumer
// attaching mid-job picks up events from the next job, not this one.
func (s *Server) jobEnv(nw *netEntry, j *Job) *jobs.Env {
	env := &jobs.Env{Network: nw.Network, Lookup: s.bundle, Metrics: s.mets}
	if j == nil || !s.bus.Enabled() {
		return env
	}
	network, jobID := j.Network, j.ID
	env.Metrics = obs.MultiSink(s.mets, &faultsTap{bus: s.bus, network: network, job: jobID})
	env.OnIteration = func(it wsan.ManageIteration) {
		s.bus.Publish(wsanclient.EventManageHealth, network, jobID, manageHealth(it))
	}
	return env
}

// bundle looks a stored artifact up by ID.
func (s *Server) bundle(id string) (jobs.Bundle, error) {
	a, ok := s.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("artifact %q not found", id)
	}
	return a, nil
}

// manageHealth is the manage.health event payload of one loop iteration.
func manageHealth(it wsan.ManageIteration) wsanclient.ManageHealth {
	var shortfalls []wsanclient.FlowShortfall
	for _, sf := range it.Shortfalls {
		shortfalls = append(shortfalls, wsanclient.FlowShortfall{
			Flow: sf.FlowID, Target: sf.Target, Predicted: sf.Predicted,
		})
	}
	return wsanclient.ManageHealth{
		Iteration:       it.Index,
		Health:          it.Health.String(),
		MinPDR:          it.MinPDR,
		MeanPDR:         it.MeanPDR,
		DegradedLinks:   it.Degraded,
		DegradedFlows:   it.DegradedFlows,
		Moved:           it.Moved,
		Unmovable:       it.Unmovable,
		Rerouted:        it.Rerouted,
		SuspectNodes:    it.SuspectNodes,
		Blacklisted:     it.Blacklisted,
		Rehabilitated:   it.Rehabilitated,
		Channels:        it.Channels,
		DeltaChanges:    it.DeltaChanges,
		AffectedDevices: it.AffectedDevices,
		Rebudgeted:      it.Rebudgeted,
		RetriesShed:     it.RetriesShed,
		ShedFlows:       it.ShedFlows,
		Shortfalls:      shortfalls,
	}
}
