package wsanclient

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// StreamOptions parameterizes an event subscription.
type StreamOptions struct {
	// Job filters the stream to one job (the per-job endpoint); empty
	// subscribes to the firehose.
	Job string
	// AfterSeq resumes the stream after a sequence number on the FIRST
	// connection (reconnections always resume from the last event seen).
	AfterSeq uint64
	// Buffer is the delivery channel capacity (default 64). A consumer
	// falling this far behind blocks the stream reader — the daemon then
	// applies its own drop policy server-side.
	Buffer int
	// MaxRetries bounds consecutive failed reconnection attempts before
	// the stream gives up (default 5; a successful connection resets the
	// count). The backoff between attempts follows the client's retry
	// configuration.
	MaxRetries int
}

// Stream is one live event subscription: a channel of decoded events fed
// by a background goroutine that transparently reconnects on connection
// loss, resuming after the last event it delivered via Last-Event-ID.
type Stream struct {
	events chan Event
	done   chan struct{}
	cancel context.CancelFunc
	err    error // written once before done closes
}

// Events returns the delivery channel. It is closed when the stream ends —
// after Close, a terminal event on a per-job stream, or a permanent error
// (check Err).
func (s *Stream) Events() <-chan Event { return s.events }

// Done returns a channel closed when the stream has fully ended.
func (s *Stream) Done() <-chan struct{} { return s.done }

// Err reports why the stream ended: nil for a clean end (Close called, or
// a per-job stream delivering its terminal event), the terminal error
// otherwise. Valid after the Events channel closes.
func (s *Stream) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Close terminates the subscription and releases its connection. Safe to
// call multiple times and concurrently with channel reads.
func (s *Stream) Close() {
	s.cancel()
	<-s.done
}

// Subscribe opens a live event stream. The returned Stream's channel
// delivers events in order; the subscription survives connection loss by
// reconnecting with Last-Event-ID resume, so no retained event is skipped
// (events evicted from the daemon's bounded replay ring between reconnects
// surface as sequence-number gaps). Cancel ctx or call Close to end it.
func (c *Client) Subscribe(ctx context.Context, opts StreamOptions) (*Stream, error) {
	buf := opts.Buffer
	if buf <= 0 {
		buf = 64
	}
	maxRetries := opts.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 5
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		events: make(chan Event, buf),
		done:   make(chan struct{}),
		cancel: cancel,
	}
	u := c.url("events")
	if opts.Job != "" {
		u = c.url("jobs", opts.Job, "events")
	}

	// Verify the subscription once synchronously so a bad job ID or an
	// unreachable daemon fails at the call site, not asynchronously.
	resp, err := c.connectStream(sctx, u, opts.AfterSeq)
	if err != nil {
		cancel()
		close(s.events)
		close(s.done)
		return nil, err
	}

	go s.run(c, resp, u, opts.AfterSeq, maxRetries)
	return s, nil
}

// Watch subscribes to one job's stream — Subscribe with the job filter.
func (c *Client) Watch(ctx context.Context, jobID string) (*Stream, error) {
	return c.Subscribe(ctx, StreamOptions{Job: jobID})
}

// connectStream opens one SSE connection, resuming after lastSeq.
func (c *Client) connectStream(ctx context.Context, u string, lastSeq uint64) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("wsanclient: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Cache-Control", "no-cache")
	if lastSeq > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", lastSeq))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("wsanclient: %s: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		return nil, decodeAPIError(resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		return nil, fmt.Errorf("wsanclient: %s responded %q, want text/event-stream", u, ct)
	}
	return resp, nil
}

// run relays events from SSE connections to the stream channel until the
// context ends, a per-job stream completes, or reconnection fails
// maxRetries times in a row.
func (s *Stream) run(c *Client, resp *http.Response, u string, lastSeq uint64, maxRetries int) {
	defer close(s.done)
	defer close(s.events)
	ctx := reqContext(resp)
	failures := 0
	for {
		delivered, last, err := s.relay(ctx, resp)
		if delivered > 0 {
			failures = 0
		}
		if last > lastSeq {
			lastSeq = last
		}
		if err == nil {
			// Clean end: per-job terminal event delivered, or Close/ctx.
			return
		}
		if ctx.Err() != nil {
			return // Close or caller cancellation: a clean end
		}
		// Connection lost mid-stream: reconnect with resume.
		for {
			failures++
			if failures > maxRetries {
				s.err = fmt.Errorf("wsanclient: stream lost after %d reconnect attempts: %w", maxRetries, err)
				return
			}
			if serr := c.sleep(ctx, c.retryDelay(failures-1, nil)); serr != nil {
				return
			}
			next, cerr := c.connectStream(ctx, u, lastSeq)
			if cerr == nil {
				// Connecting alone does not clear the failure budget — only
				// delivered events do (top of the outer loop). A daemon that
				// accepts the connection and immediately drops it would
				// otherwise keep a doomed stream alive forever.
				resp = next
				break
			}
			if ctx.Err() != nil {
				return
			}
			err = cerr
		}
	}
}

// reqContext extracts the context an http.Response's request carried.
func reqContext(resp *http.Response) context.Context {
	if resp.Request != nil {
		return resp.Request.Context()
	}
	return context.Background()
}

// relay decodes one SSE connection until it ends. It returns how many
// events it delivered, the highest sequence number seen, and the
// connection error (nil when the stream ended cleanly: a per-job terminal
// event arrived or the body closed without error).
func (s *Stream) relay(ctx context.Context, resp *http.Response) (delivered int, lastSeq uint64, err error) {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var dataBuf strings.Builder
	flush := func() (bool, error) {
		if dataBuf.Len() == 0 {
			return false, nil
		}
		payload := dataBuf.String()
		dataBuf.Reset()
		var ev Event
		if jerr := json.Unmarshal([]byte(payload), &ev); jerr != nil {
			return false, fmt.Errorf("wsanclient: undecodable event %q: %w", payload, jerr)
		}
		if ev.Seq > lastSeq {
			lastSeq = ev.Seq
		}
		select {
		case s.events <- ev:
		case <-ctx.Done():
			return false, nil
		}
		delivered++
		return TerminalEvent(ev.Type), nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			terminal, ferr := flush()
			if ferr != nil {
				return delivered, lastSeq, ferr
			}
			if terminal {
				// SSE id lines already advanced lastSeq; a terminal event
				// ends a per-job stream cleanly. Firehose streams never see
				// their connection closed right after one, so the server
				// keeps it open and we keep scanning.
				if resp.Request != nil && strings.Contains(resp.Request.URL.Path, "/jobs/") {
					return delivered, lastSeq, nil
				}
			}
		case strings.HasPrefix(line, ":"):
			// Heartbeat comment.
		case strings.HasPrefix(line, "data:"):
			dataBuf.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// id:/event: lines duplicate fields inside the data document;
			// the decoder takes them from there.
		}
	}
	if _, ferr := flush(); ferr != nil {
		return delivered, lastSeq, ferr
	}
	if serr := sc.Err(); serr != nil && ctx.Err() == nil {
		return delivered, lastSeq, fmt.Errorf("wsanclient: stream read: %w", serr)
	}
	if ctx.Err() != nil {
		return delivered, lastSeq, nil
	}
	// EOF without a terminal event: the daemon closed the stream (shutdown
	// or proxy timeout) — report it so run() reconnects.
	return delivered, lastSeq, io.ErrUnexpectedEOF
}

// WatchUntilDone subscribes to a job, invokes fn for every event, and
// returns the job's final view when the terminal event arrives. A nil fn
// just waits. Convenience for CLI-style consumers.
func (c *Client) WatchUntilDone(ctx context.Context, jobID string, fn func(Event)) (Job, error) {
	st, err := c.Watch(ctx, jobID)
	if err != nil {
		return Job{}, err
	}
	defer st.Close()
	var final Job
	sawTerminal := false
	for ev := range st.Events() {
		if fn != nil {
			fn(ev)
		}
		if ev.Type == EventJobSnapshot || strings.HasPrefix(ev.Type, "job.") {
			if j, jerr := ev.JobData(); jerr == nil {
				final = j
			}
		}
		if TerminalEvent(ev.Type) || (ev.Type == EventJobSnapshot && final.State.Terminal()) {
			sawTerminal = true
			break
		}
	}
	if serr := st.Err(); serr != nil {
		return final, serr
	}
	if !sawTerminal && ctx.Err() != nil {
		return final, ctx.Err()
	}
	if !sawTerminal {
		// Stream ended cleanly without a terminal event (daemon shutdown):
		// fall back to one poll for the final state.
		return c.Job(ctx, jobID)
	}
	return final, nil
}
