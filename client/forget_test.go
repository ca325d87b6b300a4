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
)

func isResultFetch(r *http.Request) bool {
	return r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/results/")
}

func TestDoAndWatchResubmitWhatTheDaemonForgot(t *testing.T) {
	// The result fetch follows a done that carried no result: the stream
	// of a daemon whose store has evicted the bytes. The fetch is
	// answered 404.
	seed := uint64(20)
	for _, watch := range []bool{false, true} {
		seed++
		name := "result fetch after done (Do)"
		if watch {
			name = "result fetch after done (Watch)"
		}
		req := inlineFixture(seed)
		want, err := faultroute.NewLocal().Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		// The delay keeps the first submission's job running after its
		// submit response, so the client must follow it.
		counts := &transportCounts{taskDelay: 50 * time.Millisecond, forgets: isResultFetch, noResult: true}
		c := newCountingService(t, counts)
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
