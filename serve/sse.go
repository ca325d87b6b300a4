package serve

// Server-Sent-Events push progress. POST /v1/jobs with Accept:
// text/event-stream submits and follows in one exchange: for a job that
// is not already done, the answer is the job's event stream, opened by
// an event carrying the SubmitResponse. The stream carries the api.Event
// values a status read would observe — deduplicated, with a monotone
// Done counter — and ends right after the terminal event. A terminal
// failed or canceled event carries the job's error; a terminal done is
// followed by the job's result bytes, the ones its submission holds
// (jobs.Result), so no bounded store can take them first.
// client.Watch and client.Do ask for the stream, and resubmit if it
// dies mid-job.

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

// wantsStream reports whether a submission asked for its job's event
// stream as the answer.
func wantsStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), eventStreamType)
}

// streamJob answers 200 with the job's event stream: head, a frame
// already encoded, then an "event: progress" (data = the api.Event
// JSON) per observed change, and after a terminal done an "event:
// result" whose data is res's bytes without their canonical newline.
// The stream snapshots the job at the service's event interval, skips
// snapshots that change nothing, pushes the terminal transition
// immediately, and closes after it. head leaves with the first
// snapshot, before the stream waits on the job. Behind a front end that
// cannot flush, the whole stream, result included, leaves when the
// handler returns.
func (s *Service) streamJob(w http.ResponseWriter, r *http.Request, job *jobs.Job, res *jobs.Result, head []byte) {
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
		cur := api.Event{State: st.State, Done: st.Done, Total: st.Total, Error: st.Error}
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
			if data := res.Bytes(); st.State == jobs.StateDone && len(data) > 0 && data[len(data)-1] == '\n' {
				writeEvent(w, "result", data[:len(data)-1])
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
