// Package wsanclient is the typed Go client of the wsan network-manager
// daemon's v1 REST+SSE API (the surface `wsansim serve` exposes).
//
// The client covers the full API: network registration, asynchronous job
// submission with completion polling, artifact retrieval, and the live
// telemetry stream (job lifecycle transitions, per-iteration manage health
// verdicts, fault events, metrics deltas) with automatic reconnection and
// Last-Event-ID resume. Retryable failures — connection errors, 429 with
// Retry-After, 502/503/504 — are retried with bounded exponential backoff.
//
// The wire types are declared here and nowhere else: the daemon encodes
// these same types. The package imports only the standard library, so
// importing the client never links the scheduling and simulation pipeline
// into a consumer binary.
package wsanclient

import (
	"encoding/json"
	"fmt"
	"time"
)

// JobState is a job's lifecycle state on the wire.
type JobState string

// Job lifecycle states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state ends a job's lifecycle.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job kinds accepted by SubmitJob.
const (
	KindSchedule   = "schedule"
	KindSimulate   = "simulate"
	KindConverge   = "converge"
	KindManage     = "manage"
	KindReschedule = "reschedule"
)

// CreateNetworkRequest is the POST /v1/networks body. Exactly one of
// Preset and Testbed selects the topology source.
type CreateNetworkRequest struct {
	Name         string          `json:"name"`
	Preset       string          `json:"preset,omitempty"`
	TopoSeed     int64           `json:"toposeed,omitempty"`
	Testbed      json.RawMessage `json:"testbed,omitempty"`
	Channels     int             `json:"channels,omitempty"`
	PRRThreshold float64         `json:"prrThreshold,omitempty"`
	AccessPoints int             `json:"accessPoints,omitempty"`
}

// Network describes one hosted network.
type Network struct {
	Name          string    `json:"name"`
	Hash          string    `json:"hash"`
	Nodes         int       `json:"nodes"`
	Channels      []int     `json:"channels"`
	AccessPoints  []int     `json:"accessPoints"`
	CommEdges     int       `json:"commEdges"`
	ReuseDiameter int       `json:"reuseDiameter"`
	Created       time.Time `json:"created"`
}

// Job is the daemon's view of one asynchronous job.
type Job struct {
	ID       string     `json:"id"`
	Network  string     `json:"network"`
	Kind     string     `json:"kind"`
	State    JobState   `json:"state"`
	Cached   bool       `json:"cached"`
	Artifact string     `json:"artifact,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// JobPage is one page of the jobs list. NextAfter, when non-empty, is the
// ?after= cursor of the next page.
type JobPage struct {
	Jobs      []Job  `json:"jobs"`
	NextAfter string `json:"nextAfter,omitempty"`
}

// ArtifactInfo describes one stored artifact (parts by name only; fetch
// content with Client.ArtifactPart or Client.Artifact).
type ArtifactInfo struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	Created time.Time `json:"created"`
	Parts   []string  `json:"parts"`
}

// ArtifactPage is one page of the artifacts list.
type ArtifactPage struct {
	Artifacts []ArtifactInfo `json:"artifacts"`
	NextAfter string         `json:"nextAfter,omitempty"`
}

// Artifact is one artifact bundle with every part's document embedded.
type Artifact struct {
	ID      string                     `json:"id"`
	Kind    string                     `json:"kind"`
	Created time.Time                  `json:"created"`
	Parts   map[string]json.RawMessage `json:"parts"`
}

// Event is one entry of the daemon's telemetry stream. Seq is strictly
// increasing per daemon; a gap between consecutive events on one
// subscription means the daemon dropped events for this consumer.
type Event struct {
	Seq     uint64          `json:"seq"`
	Type    string          `json:"type"`
	Time    time.Time       `json:"time"`
	Network string          `json:"network,omitempty"`
	Job     string          `json:"job,omitempty"`
	Data    json.RawMessage `json:"data,omitempty"`
}

// Event types of the v1 stream. Lifecycle events carry a Job as Data and
// are named "job." + its state. job.snapshot primes a per-job stream with
// the job's current view; it is synthesized per subscriber and carries no
// sequence number. metrics.delta and cache.evicted are published on the
// firehose only.
const (
	EventJobQueued    = "job.queued"
	EventJobRunning   = "job.running"
	EventJobDone      = "job.done"
	EventJobFailed    = "job.failed"
	EventJobCancelled = "job.cancelled"
	EventJobSnapshot  = "job.snapshot"
	EventManageHealth = "manage.health"
	EventFaultCounts  = "faults.applied"
	EventMetricsDelta = "metrics.delta"
	EventCacheEvict   = "cache.evicted"
)

// TerminalEvent reports whether typ marks the end of a job's lifecycle.
func TerminalEvent(typ string) bool {
	return typ == EventJobDone || typ == EventJobFailed || typ == EventJobCancelled
}

// JobData decodes the event's Data as a job view (lifecycle and snapshot
// events carry one).
func (e Event) JobData() (Job, error) {
	var j Job
	err := json.Unmarshal(e.Data, &j)
	return j, err
}

// ManageHealthData decodes the event's Data as a manage.health payload.
func (e Event) ManageHealthData() (ManageHealth, error) {
	var m ManageHealth
	err := json.Unmarshal(e.Data, &m)
	return m, err
}

// CacheEviction is the Data of an EventCacheEvict event: one artifact the
// daemon's store evicted, by the byte budget ("capacity") or by expiry
// ("ttl").
type CacheEviction struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Bytes  int64  `json:"bytes"`
	Reason string `json:"reason"`
}

// CacheEvictionData decodes the event's Data as a cache.evicted payload.
func (e Event) CacheEvictionData() (CacheEviction, error) {
	var ev CacheEviction
	err := json.Unmarshal(e.Data, &ev)
	return ev, err
}

// MetricsSnapshot is the daemon's /v1/metrics document: monotonic counters,
// point-in-time gauges, and histogram summaries.
type MetricsSnapshot struct {
	Counters   map[string]int64            `json:"counters"`
	Gauges     map[string]float64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
	Events     map[string]int64            `json:"events,omitempty"`
}

// HistogramSummary is the serialized summary of one metrics histogram.
type HistogramSummary struct {
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
	Min    float64 `json:"min"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"`
}

// ManageHealth is one manage-loop iteration's health verdict plus the
// recovery actions taken (the Data of an EventManageHealth event).
type ManageHealth struct {
	Iteration       int     `json:"iteration"`
	Health          string  `json:"health"` // "healthy", "degraded", "recovered"
	MinPDR          float64 `json:"minPDR"`
	MeanPDR         float64 `json:"meanPDR"`
	DegradedLinks   int     `json:"degradedLinks"`
	DegradedFlows   []int   `json:"degradedFlows,omitempty"`
	Moved           int     `json:"moved"`
	Unmovable       int     `json:"unmovable"`
	Rerouted        int     `json:"rerouted"`
	SuspectNodes    []int   `json:"suspectNodes,omitempty"`
	Blacklisted     []int   `json:"blacklisted,omitempty"`
	Rehabilitated   []int   `json:"rehabilitated,omitempty"`
	Channels        []int   `json:"channels"`
	DeltaChanges    int     `json:"deltaChanges"`
	AffectedDevices int     `json:"affectedDevices"`

	// Reliability re-budgeting outcome of the iteration. Zero values when
	// the workload carries no delivery-probability targets.
	Rebudgeted  int             `json:"rebudgeted,omitempty"`
	RetriesShed int             `json:"retriesShed,omitempty"`
	ShedFlows   []int           `json:"shedFlows,omitempty"`
	Shortfalls  []FlowShortfall `json:"shortfalls,omitempty"`
}

// FlowShortfall is one reliability shortfall inside a ManageHealth event: a
// targeted flow whose best-effort retransmission budget cannot reach its
// delivery-probability target under the observed link PRRs.
type FlowShortfall struct {
	Flow      int     `json:"flow"`
	Target    float64 `json:"target"`
	Predicted float64 `json:"predicted"`
}

// APIError is a non-2xx daemon response decoded from the v1 error envelope
// {"error":{"code":"...","message":"..."}}.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code ("not_found", "queue_full",
	// "invalid_request", "conflict", "draining", "internal").
	Code string
	// Message is the human-readable description.
	Message string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("wsanclient: %s (HTTP %d, code %s)", e.Message, e.Status, e.Code)
}

// IsNotFound reports whether err is an APIError with code "not_found".
func IsNotFound(err error) bool { return hasCode(err, "not_found") }

// IsConflict reports whether err is an APIError with code "conflict".
func IsConflict(err error) bool { return hasCode(err, "conflict") }

func hasCode(err error, code string) bool {
	var ae *APIError
	if ok := asAPIError(err, &ae); ok {
		return ae.Code == code
	}
	return false
}
