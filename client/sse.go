package client

// The Server-Sent-Events transport. Do and Watch submit with Accept:
// text/event-stream, and a daemon answers a job that is not done yet
// with the job's event stream: a "submitted" event carrying the
// SubmitResponse, the job's "progress" events, and after a terminal
// done a "result" event carrying the result bytes. A fresh job thus
// costs one exchange. The stream is purely a transport: it delivers the
// job's deduplicated, monotone api.Event sequence, and a stream that
// ends before its terminal event (a daemon restart, a broken proxy, an
// oversized event) is followed by a resubmission, which continues the
// same event sequence from the shared dedup state.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"faultroute/api"
)

// eventStreamType is the media type of an event stream, in Accept and
// Content-Type alike.
const eventStreamType = "text/event-stream"

// maxEventBytes caps the data of one server-sent event other than
// result. An api.Event encodes in under 100 bytes and a SubmitResponse
// in a few hundred; a stream that sends more without the blank line
// that ends an event is broken or hostile, and the client hangs up and
// resubmits. A result event's data is capped by the client's response
// body bound instead, the bound a GET /v1/results body has.
const maxEventBytes = 64 << 10

// errEventTooLarge reports an event whose data passes its cap.
var errEventTooLarge = errors.New("event data exceeds its bound")

// isEventStream reports whether resp is a 200 event stream.
func isEventStream(resp *http.Response) bool {
	return resp.StatusCode == http.StatusOK &&
		strings.HasPrefix(resp.Header.Get("Content-Type"), eventStreamType)
}

// eventStream reads the events of one open stream.
type eventStream struct {
	body      io.ReadCloser
	r         *bufio.Reader
	maxResult int    // cap of a result event's data
	buf       []byte // the current event's data, then the line being read
}

func (c *Client) newEventStream(body io.ReadCloser) *eventStream {
	return &eventStream{body: body, r: bufio.NewReader(body), maxResult: int(c.maxBody)}
}

// next reads the stream's next event: its name (see eventName) and its
// data, the data lines joined by newlines. The data is valid until the
// next call. It returns an error once the stream ends or fails before
// another complete event, or sends an event past its cap: an event
// counts only once its closing blank line has arrived, so a cut stream
// never yields part of one.
func (es *eventStream) next() (name string, data []byte, err error) {
	es.buf = es.buf[:0]
	hasData := false
	for {
		limit := maxEventBytes
		if name == "result" {
			limit = es.maxResult
		}
		// The line is read onto the end of the data so far: a data line
		// then moves its value down over its own field name, and any
		// other line is dropped again.
		n := len(es.buf)
		if es.buf, err = es.readLine(limit - n + len("data: ")); err != nil {
			return "", nil, err
		}
		line := es.buf[n:]
		es.buf = es.buf[:n]
		switch {
		case len(line) == 0:
			if hasData {
				return name, es.buf, nil
			}
			name = "" // an event without data is never dispatched
		case bytes.HasPrefix(line, []byte("data:")):
			v := bytes.TrimPrefix(line[len("data:"):], []byte(" "))
			if hasData {
				es.buf = append(es.buf, '\n')
			}
			es.buf = append(es.buf, v...) // moves v down: it starts past the separator
			hasData = true
			if len(es.buf) > limit {
				return "", nil, errEventTooLarge
			}
		case bytes.HasPrefix(line, []byte("event:")):
			name = eventName(bytes.TrimPrefix(line[len("event:"):], []byte(" ")))
		default: // "retry:", "id:", comments: irrelevant to us
		}
	}
}

// readLine appends the stream's next line, without its line ending, to
// es.buf and returns the extended buffer. It fails once the line passes
// max bytes, and on a line the stream ends inside.
func (es *eventStream) readLine(max int) ([]byte, error) {
	buf, start := es.buf, len(es.buf)
	for {
		frag, err := es.r.ReadSlice('\n')
		if len(buf)-start+len(frag) > max+len("\r\n") {
			return buf[:start], errEventTooLarge
		}
		buf = append(buf, frag...)
		switch err {
		case nil:
			buf = buf[:len(buf)-1]
			if len(buf) > start && buf[len(buf)-1] == '\r' {
				buf = buf[:len(buf)-1]
			}
			return buf, nil
		case bufio.ErrBufferFull:
		default:
			return buf[:start], err
		}
	}
}

// eventName returns the name an "event:" field sets, as a constant
// string for the names this client acts on ("other" for the rest), so
// reading it allocates nothing.
func eventName(b []byte) string {
	for _, name := range [...]string{"progress", "submitted", "result"} {
		if string(b) == name {
			return name
		}
	}
	return "other"
}

// finish drains what is left of the stream, up to maxEventBytes, and
// closes it. It is called after the terminal or result event, where a
// daemon ends the stream: a body read to its end lets the HTTP
// transport reuse the connection. A stream held open past that point
// is bounded by the caller's context.
func (es *eventStream) finish() {
	io.CopyN(io.Discard, es.r, maxEventBytes)
	es.body.Close()
}

// submitted decodes the stream's first event, which must be the
// submitted event, into sub (an *api.SubmitResponse).
func (es *eventStream) submitted(sub any) error {
	name, data, err := es.next()
	switch {
	case err != nil:
		return fmt.Errorf("event stream ended before its submitted event: %w", err)
	case name != "submitted":
		return fmt.Errorf("event stream opened with a %s event, not submitted", name)
	}
	if err := json.Unmarshal(data, sub); err != nil {
		return fmt.Errorf("decoding submitted event: %w", err)
	}
	return nil
}

// watchStream consumes a job's event stream to its terminal event,
// delivering deduplicated events to onEvent, and closes it; st is the
// job's status from its submission. It returns st unchanged when the
// stream died, or sent an oversized event, before the terminal one. For
// a done job, result holds the data of the stream's result event, the
// result bytes less their canonical newline, or is nil when the stream
// carried none (a daemon that predates it, or whose store has evicted
// the bytes) or carried bytes that are not JSON. A non-nil error is
// final (the caller's context ended, or the job failed or was canceled
// but its status could not be fetched).
func (c *Client) watchStream(ctx context.Context, es *eventStream, st api.JobStatus, last *api.Event, onEvent func(api.Event)) (fin api.JobStatus, result []byte, err error) {
	var final api.JobState // the terminal event's state, once one arrives
	for final == "" {
		name, data, err := es.next()
		if err != nil {
			break
		}
		if name != "progress" && name != "" { // unnamed events are progress too
			continue
		}
		var ev api.Event
		if json.Unmarshal(data, &ev) != nil {
			continue
		}
		emit(ev, last, onEvent)
		if ev.State.Terminal() {
			final = ev.State
		}
	}
	if final == "" {
		// Disconnected mid-job or sent an oversized event: the caller
		// resubmits unless it is done itself.
		es.body.Close()
		return st, nil, ctx.Err()
	}
	if final == api.JobDone {
		if name, data, err := es.next(); err == nil && name == "result" && json.Valid(data) {
			result = data
			es.buf = nil // result owns the buffer now
		}
		es.finish()
		st.State = final
		return st, result, nil
	}
	es.finish()
	// The stream only carries progress counters; a failed or canceled
	// job's error message comes from its status.
	if fin, err = c.Status(ctx, st.ID); err != nil {
		return api.JobStatus{}, nil, err
	}
	return fin, nil, nil
}
