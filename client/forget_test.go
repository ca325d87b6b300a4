package client_test

// A daemon forgets a job it acknowledged once its bounded history drops
// the finished job's record, and a result once its bounded store evicts
// the bytes. Do and Watch then resubmit: submissions are
// content-addressed, so the resubmission coalesces onto the same work
// or recomputes the same bytes.

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
)

func isResultFetch(r *http.Request) bool {
	return r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/results/")
}

func isStatusPoll(r *http.Request) bool {
	return r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") &&
		!strings.HasSuffix(r.URL.Path, "/events")
}

func TestDoAndWatchResubmitWhatTheDaemonForgot(t *testing.T) {
	// The result fetch follows a done that carried no result: the stream
	// of a daemon whose store has evicted the bytes.
	cases := []struct {
		name     string
		forgets  func(*http.Request) bool
		noResult bool
		opts     []client.Option
	}{
		{"result fetch after done", isResultFetch, true, nil},
		{"status poll", isStatusPoll, false, []client.Option{client.WithSSE(false)}},
	}
	seed := uint64(20)
	for _, tc := range cases {
		for _, watch := range []bool{false, true} {
			seed++
			name := tc.name + " (Do)"
			if watch {
				name = tc.name + " (Watch)"
			}
			req := inlineFixture(seed)
			want, err := faultroute.NewLocal().Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			// The delay keeps the first submission's job running after
			// its submit response, so the client must follow it.
			counts := &transportCounts{taskDelay: 50 * time.Millisecond, forgets: tc.forgets, noResult: tc.noResult}
			c := newCountingService(t, counts, tc.opts...)
			var got api.Result
			if watch {
				var events []api.Event
				got, events = collectWatch(t, c, req)
				checkSequence(t, name, events)
			} else if got, err = c.Do(context.Background(), req); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !counts.forgot.Load() {
				t.Fatalf("%s: the daemon never forgot, so nothing was resubmitted", name)
			}
			if got.Key != want.Key || !bytes.Equal(got.Body, want.Body) {
				t.Errorf("%s: returned other bytes than Local:\n got %s %s\nwant %s %s", name, got.Key, got.Body, want.Key, want.Body)
			}
			if n := counts.submits.Load(); n != 2 {
				t.Errorf("%s: %d submissions, want the first and one resubmission", name, n)
			}
		}
	}
}
