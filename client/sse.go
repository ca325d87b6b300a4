package client

// The Server-Sent-Events progress transport: when a daemon advertises
// GET /v1/jobs/{id}/events in its submit response, Watch (and Do)
// subscribe to that stream instead of polling GET /v1/jobs/{id}. The
// upgrade is purely a transport change — the stream delivers the same
// deduplicated, monotone api.Event sequence polling would, and any
// stream failure (refused connection, old daemon, mid-stream
// disconnect) silently falls back to the poll loop, which resumes the
// same event sequence from the shared dedup state.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"

	"faultroute/api"
)

// maxEventBytes caps the data of one server-sent event. An api.Event
// encodes in under 100 bytes; a stream that sends more without the
// blank line that ends an event is broken or hostile, and the client
// polls instead. bufio.Scanner already caps a single line at 64 KiB, so
// the data held never exceeds twice this.
const maxEventBytes = 64 << 10

// watchEvents consumes the job's SSE stream at path, delivering
// deduplicated events to onEvent; sub is the job's status from the
// submit response. It returns streamed=false when the caller should
// fall back to polling: the stream was refused, is not an event stream,
// or died before the job reached a terminal state. A non-nil error is
// final (the caller's context ended, or the job failed or was canceled
// but its status could not be fetched).
func (c *Client) watchEvents(ctx context.Context, path string, sub api.JobStatus, last *api.Event, onEvent func(api.Event)) (st api.JobStatus, streamed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return api.JobStatus{}, false, nil
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return api.JobStatus{}, false, ctx.Err()
		}
		return api.JobStatus{}, false, nil // refused: poll instead
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		return api.JobStatus{}, false, nil // not a stream (404, proxy, old daemon)
	}

	var final api.JobState // the terminal event's state, once one arrives
	sc := bufio.NewScanner(resp.Body)
	var data []byte
	flush := func() {
		if len(data) == 0 {
			return
		}
		var ev api.Event
		if json.Unmarshal(data, &ev) == nil {
			// Dedup against the shared state; the Done guard keeps the
			// sequence monotone even against a confused server.
			if ev != *last && ev.Done >= last.Done {
				*last = ev
				if onEvent != nil {
					onEvent(ev)
				}
			}
			if ev.State.Terminal() {
				final = ev.State
			}
		}
		data = nil
	}
	for final == "" && len(data) <= maxEventBytes && sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // blank line: dispatch the accumulated event
			flush()
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		default: // "event:", "retry:", comments — irrelevant to us
		}
	}
	if final == "" {
		// Disconnected mid-job (daemon restart, broken proxy, scanner
		// error) or sent an oversized event: hand the job back to the
		// poll loop unless the caller itself is done.
		if ctx.Err() != nil {
			return api.JobStatus{}, false, ctx.Err()
		}
		return api.JobStatus{}, false, nil
	}
	if final == api.JobDone {
		// A done job needs nothing the stream lacks: the caller fetches
		// the result by the key the submit response already carries.
		sub.State = final
		return sub, true, nil
	}
	// The stream only carries progress counters; a failed or canceled
	// job's error message comes from its status.
	fin, err := c.Status(ctx, sub.ID)
	if err != nil {
		return api.JobStatus{}, false, err
	}
	return fin, true, nil
}
