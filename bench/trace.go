package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Start and End are offsets from the
// recorder's epoch; Parent indexes the enclosing span (-1 for none) and Req
// ties the spans of one operation together (-1 outside operations).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
}

// recorder keeps spans in memory until the run ends. Every method is a no-op
// on a nil *recorder, which is how untraced runs and untraced operations pay
// nothing: no clock read, no allocation.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span now and returns its handle for end.
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), End: -1, Parent: parent, Req: req})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.epoch)
}

// add records a span whose bounds were measured elsewhere, such as the
// daemon's own job timestamps, and returns its handle.
func (r *recorder) add(name string, start, end time.Time, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Parent: parent, Req: req})
	return len(r.spans) - 1
}

// layerStat aggregates every span of one name.
type layerStat struct {
	durs []float64 // µs
	self time.Duration
}

// aggregate groups spans by name. A span's self time is its duration minus
// the union of its children's intervals, clipped to the span, so
// overlapping children (a submit round trip and the server-side run it
// started) are not counted twice.
func (r *recorder) aggregate() map[string]*layerStat {
	kids := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]*layerStat)
	var ivs [][2]time.Duration
	for i, s := range r.spans {
		ivs = ivs[:0]
		for _, k := range kids[i] {
			ivs = append(ivs, [2]time.Duration{r.spans[k].Start, r.spans[k].End})
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.durs = append(st.durs, float64(d)/float64(time.Microsecond))
		st.self += d - covered(s.Start, s.End, ivs)
	}
	return out
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum time.Duration
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write stores the spans as JSON at path.
func (r *recorder) write(path string) error {
	raw, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{r.epoch, r.spans})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
