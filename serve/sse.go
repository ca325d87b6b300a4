package serve

// Server-Sent-Events push progress. A job's event stream carries the
// same api.Event values polling GET /v1/jobs/{id} would observe —
// deduplicated, with a monotone Done counter — and ends right after the
// terminal event, so a stream consumer and a poller see equivalent
// sequences and identical terminal states. After a terminal done the
// stream also carries the job's result bytes, read from the store at
// that moment, so a waiter needs no GET /v1/results.
//
// Two requests get the stream. GET /v1/jobs/{id}/events follows a job
// already submitted; every SubmitResponse advertises it (the events
// field). POST /v1/jobs with Accept: text/event-stream submits and
// follows in one exchange: for a job that is not already done, the
// answer is the stream, opened by an event carrying the
// SubmitResponse. client.Watch and client.Do ask for it, and resubmit
// if the stream dies mid-job.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"faultroute/api"
	"faultroute/internal/jobs"
)

// eventStreamType is the media type of an event stream, in Accept and
// Content-Type alike.
const eventStreamType = "text/event-stream"

// sseRetryHint tells EventSource-style consumers how long to wait
// before reconnecting after a drop.
const sseRetryHint = 500 * time.Millisecond

// retryFrame opens a GET event stream: the reconnection hint.
var retryFrame = []byte(fmt.Sprintf("retry: %d\n\n", sseRetryHint.Milliseconds()))

// wantsStream reports whether a submission asked for its job's event
// stream as the answer.
func wantsStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), eventStreamType)
}

// handleJobEvents streams one known job's events (see streamJob).
// Unknown jobs get a plain 404 JSON error.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.engine.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	annotate(r, job.ID(), job.Key())
	s.streamJob(w, r, job, retryFrame)
}

// streamJob answers 200 with the job's event stream: head, a frame
// already encoded, then an "event: progress" (data = the api.Event
// JSON) per observed change, and after a terminal done an "event:
// result" whose data is the stored result bytes without their
// canonical newline. The stream snapshots the job at the service's
// event interval, skips snapshots that change nothing, pushes the
// terminal transition immediately, and closes after it. head leaves
// with the first snapshot, before the stream waits on the job. Behind a
// front end that cannot flush, the whole stream, result included,
// leaves when the handler returns. A done job whose bytes the store no
// longer holds gets no result event; its waiter fetches the result, or
// resubmits on a 404.
func (s *Service) streamJob(w http.ResponseWriter, r *http.Request, job *jobs.Job, head []byte) {
	w.Header().Set("Content-Type", eventStreamType)
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	w.Write(head)

	s.metrics.sseActive.Inc()
	defer s.metrics.sseActive.Dec()

	ticker := time.NewTicker(s.eventInterval)
	defer ticker.Stop()
	var last api.Event
	first := true
	for {
		st := job.Status()
		cur := api.Event{State: st.State, Done: st.Done, Total: st.Total}
		if first || cur != last {
			first, last = false, cur
			data, err := json.Marshal(cur)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		}
		if st.State.Terminal() {
			// No flush: the terminal event, the result and the end of
			// the response leave together when the handler returns.
			if st.State == jobs.StateDone {
				if data, ok := s.store.Get(job.Key()); ok && len(data) > 0 && data[len(data)-1] == '\n' {
					writeEvent(w, "result", data[:len(data)-1])
				}
			}
			return
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return // the subscriber went away mid-write
		}
		select {
		case <-r.Context().Done():
			return
		case <-job.Done(): // push the terminal transition immediately
		case <-ticker.C:
		}
	}
}

// writeEvent writes one named event whose data is written verbatim, a
// data line per line of it, so a consumer that joins the data lines
// with newlines, as the SSE format specifies, reads exactly data.
func writeEvent(w io.Writer, name string, data []byte) {
	io.WriteString(w, "event: "+name+"\n")
	for {
		line, rest, more := bytes.Cut(data, newline)
		w.Write(dataField)
		w.Write(line)
		w.Write(newline)
		if !more {
			break
		}
		data = rest
	}
	w.Write(newline)
}

// The fixed pieces of an event frame (package variables, so writing
// them allocates nothing).
var (
	dataField = []byte("data: ")
	newline   = []byte("\n")
)
