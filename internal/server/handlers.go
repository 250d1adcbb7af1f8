package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"wsan/wsanclient"
)

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	jobs := len(s.jobOrder)
	s.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":   state,
		"networks": s.nets.size(),
		"jobs":     jobs,
	})
}

// handleMetrics serves the live registry snapshot — the same JSON document
// `wsansim -metrics` prints.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.mets.WriteJSON(w)
}

// handleCreateNetwork registers a network from a preset or an uploaded
// topology document.
func (s *Server) handleCreateNetwork(w http.ResponseWriter, r *http.Request) {
	var req wsanclient.CreateNetworkRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, "invalid request body: %v", err)
		return
	}
	e, err := s.nets.create(req)
	if err != nil {
		status, code := http.StatusBadRequest, codeInvalidRequest
		if errors.Is(err, errExists) {
			status, code = http.StatusConflict, codeConflict
		}
		writeErr(w, status, code, "%v", err)
		return
	}
	s.mets.Gauge("server.networks", float64(s.nets.size()))
	writeJSON(w, http.StatusCreated, e.view())
}

// handleListNetworks lists the hosted networks.
func (s *Server) handleListNetworks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"networks": s.nets.list()})
}

// handleGetNetwork describes one network.
func (s *Server) handleGetNetwork(w http.ResponseWriter, r *http.Request) {
	e, ok := s.nets.get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "network %q not found", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, e.view())
}

// handleDeleteNetwork deregisters a network. Running jobs keep their
// references; artifacts stay addressable.
func (s *Server) handleDeleteNetwork(w http.ResponseWriter, r *http.Request) {
	if !s.nets.remove(r.PathValue("name")) {
		writeErr(w, http.StatusNotFound, codeNotFound, "network %q not found", r.PathValue("name"))
		return
	}
	s.mets.Gauge("server.networks", float64(s.nets.size()))
	w.WriteHeader(http.StatusNoContent)
}

// submitRequest is the POST /v1/networks/{name}/jobs body.
type submitRequest struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// handleSubmitJob accepts one asynchronous job. Responses: 202 with the job
// view (or 200 on a cache hit), 400 on bad parameters, 404 for an unknown
// network, 429 when the queue is full, 503 while draining.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.nets.get(name); !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "network %q not found", name)
		return
	}
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, "invalid request body: %v", err)
		return
	}
	j, err := s.SubmitJob(name, req.Kind, req.Params)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.pool.RetryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests, codeQueueFull, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, codeDraining, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	v := j.View()
	status := http.StatusAccepted
	if v.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

// parsePage extracts the ?limit= / ?after= cursor-pagination parameters of
// a list endpoint. limit 0 (the default) means "everything" — the
// pre-pagination behaviour — and negative or non-numeric values are a 400.
func parsePage(w http.ResponseWriter, r *http.Request) (after string, limit int, ok bool) {
	after = r.URL.Query().Get("after")
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, codeInvalidRequest, "invalid limit %q", raw)
			return "", 0, false
		}
		limit = n
	}
	return after, limit, true
}

// handleListJobs lists jobs in submission order (stable: job IDs are
// assigned from a strictly increasing sequence and jobs are never removed).
// ?limit= caps the page; ?after=<job-id> resumes past that job; a truncated
// response carries nextAfter as the next page's cursor; a cursor that is no
// job ID is a 400, not a silent restart from the first job.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	after, limit, ok := parsePage(w, r)
	if !ok {
		return
	}
	if _, valid := jobSeqNum(after); after != "" && !valid {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, "invalid after cursor %q", after)
		return
	}
	views, next := s.JobViews(after, limit)
	body := map[string]any{"jobs": views}
	if next != "" {
		body["nextAfter"] = next
	}
	writeJSON(w, http.StatusOK, body)
}

// handleGetJob serves one job's state — the polling endpoint.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "job %q not found", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleCancelJob cancels a queued or running job. 200 with the job view
// when the cancellation was delivered, 409 when the job had already
// finished.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "job %q not found", r.PathValue("id"))
		return
	}
	if !j.Cancel() {
		writeErr(w, http.StatusConflict, codeConflict, "job %q already finished (%v)", j.ID, j.State())
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleListArtifacts lists the stored artifacts sorted by ID (stable:
// content addresses never change). Same ?limit=/?after=/nextAfter contract
// as the jobs list.
func (s *Server) handleListArtifacts(w http.ResponseWriter, r *http.Request) {
	after, limit, ok := parsePage(w, r)
	if !ok {
		return
	}
	views, next := s.ArtifactViews(after, limit)
	body := map[string]any{"artifacts": views}
	if next != "" {
		body["nextAfter"] = next
	}
	writeJSON(w, http.StatusOK, body)
}

// handleGetArtifact serves one artifact with every part embedded — parts
// are raw JSON documents, so the bundle is itself one JSON document.
func (s *Server) handleGetArtifact(w http.ResponseWriter, r *http.Request) {
	a, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "artifact %q not found", r.PathValue("id"))
		return
	}
	parts := make(map[string]json.RawMessage, len(a.PartNames()))
	for _, name := range a.PartNames() {
		parts[name] = json.RawMessage(a.Part(name))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": a.ID, "kind": a.Kind, "created": a.Created, "parts": parts,
	})
}

// handleGetArtifactPart serves one part's exact bytes — byte-identical to
// the file the wsansim CLI would have written.
func (s *Server) handleGetArtifactPart(w http.ResponseWriter, r *http.Request) {
	a, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "artifact %q not found", r.PathValue("id"))
		return
	}
	part := a.Part(r.PathValue("part"))
	if part == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "artifact %q has no part %q",
			r.PathValue("id"), r.PathValue("part"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(part)
}
