package wsanclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzStreamRelay feeds arbitrary SSE bodies to the stream decoder. relay
// must never panic, must report exactly the events it delivered, must
// report a lastSeq no lower than any delivered Seq, and may fail only on
// a data block that does not decode as an Event; a body that simply ends
// reports io.ErrUnexpectedEOF so the stream reconnects. An independent
// line splitter predicts the delivered events and the outcome. perJob
// attaches a per-job request URL, on which a terminal event ends the
// connection cleanly.
func FuzzStreamRelay(f *testing.F) {
	for _, seed := range []string{
		"",
		": heartbeat\n\n",
		"id: 1\nevent: job.queued\ndata: {\"seq\":1,\"type\":\"job.queued\"}\n\n",
		"data: {\"seq\":7,\"type\":\"job.done\"}\n\ndata: {\"seq\":8}\n\n",
		"data: {\"seq\":\ndata: 3}\n\n",
		"data: {\"seq\":2}\r\n\r\ndata: not json\r\n\r\n",
		"data: {\"seq\":9,\"time\":\"yesterday\"}\n\n",
		"data: {\"seq\":4,\"type\":\"job.failed\"}",
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, perJob bool) {
		if len(body) > 64<<10 {
			t.Skip("longer than needed to reach every decoder path")
		}
		resp := &http.Response{Body: io.NopCloser(bytes.NewReader(body))}
		if perJob {
			resp.Request = &http.Request{URL: &url.URL{Path: "/v1/jobs/j1/events"}}
		}
		s := &Stream{events: make(chan Event)}
		var got []Event
		drained := make(chan struct{})
		go func() {
			for ev := range s.events {
				got = append(got, ev)
			}
			close(drained)
		}()
		delivered, lastSeq, err := s.relay(context.Background(), resp)
		close(s.events)
		<-drained

		if delivered != len(got) {
			t.Fatalf("relay reported %d events, delivered %d", delivered, len(got))
		}
		for _, ev := range got {
			if ev.Seq > lastSeq {
				t.Fatalf("lastSeq %d is below delivered seq %d", lastSeq, ev.Seq)
			}
		}
		want, wantErr := expectRelay(body, perJob)
		if len(got) != len(want) {
			t.Fatalf("delivered %d events, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type {
				t.Fatalf("event %d = %d/%q, want %d/%q", i, got[i].Seq, got[i].Type, want[i].Seq, want[i].Type)
			}
		}
		switch {
		case wantErr == nil && err != nil:
			t.Fatalf("clean stream returned %v", err)
		case errors.Is(wantErr, io.ErrUnexpectedEOF) && !errors.Is(err, io.ErrUnexpectedEOF):
			t.Fatalf("stream that just ends returned %v, want io.ErrUnexpectedEOF", err)
		case wantErr != nil && !errors.Is(wantErr, io.ErrUnexpectedEOF) &&
			(err == nil || !strings.HasPrefix(err.Error(), "wsanclient: undecodable event")):
			t.Fatalf("undecodable data block returned %v", err)
		}
	})
}

// expectRelay predicts what relay delivers from body: lines split on
// "\n" with one trailing "\r" dropped, "data:" lines concatenated into a
// block, a blank line (or the end of the body) ending the block. It
// returns the decoded events and the expected error: a decode error for
// the first block that is not an Event, nil when perJob and a terminal
// event ends the stream at a blank line, io.ErrUnexpectedEOF otherwise.
func expectRelay(body []byte, perJob bool) ([]Event, error) {
	lines := strings.Split(string(body), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1] // the body's final newline ends a line, not a blank one
	}
	var events []Event
	var block strings.Builder
	end := func() (terminal bool, err error) {
		if block.Len() == 0 {
			return false, nil
		}
		var ev Event
		if err := json.Unmarshal([]byte(block.String()), &ev); err != nil {
			return false, err
		}
		block.Reset()
		events = append(events, ev)
		return TerminalEvent(ev.Type), nil
	}
	for _, line := range lines {
		line = strings.TrimSuffix(line, "\r")
		if data, ok := strings.CutPrefix(line, "data:"); ok {
			block.WriteString(strings.TrimPrefix(data, " "))
			continue
		}
		if line != "" {
			continue
		}
		terminal, err := end()
		if err != nil {
			return events, err
		}
		if terminal && perJob {
			return events, nil
		}
	}
	if _, err := end(); err != nil {
		return events, err
	}
	return events, io.ErrUnexpectedEOF
}
