package client

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestBackoffWaitNeverOverflows pins the fix for the unbounded
// left-shift: at attempt counts >= 40 the old `backoff << (attempt-1)`
// wrapped time.Duration negative, and time.After(negative) fires
// immediately — a hot retry loop exactly when the daemon is unhealthy.
func TestBackoffWaitNeverOverflows(t *testing.T) {
	c := New("http://x", WithRetry(100, 100*time.Millisecond))
	for attempt := 1; attempt <= 100; attempt++ {
		w := c.backoffWait(attempt)
		if w < 0 {
			t.Fatalf("attempt %d: negative wait %v", attempt, w)
		}
		if w > maxBackoff {
			t.Fatalf("attempt %d: wait %v above cap %v", attempt, w, maxBackoff)
		}
	}
	// The old code produced a negative duration at attempt 50; the fix
	// must saturate at the cap (jitter keeps it within [cap/2, cap]).
	if w := c.backoffWait(50); w < maxBackoff/2 {
		t.Fatalf("attempt 50: wait %v collapsed instead of saturating near %v", w, maxBackoff)
	}
}

// TestBackoffWaitGrowthAndJitterWindow checks the schedule doubles from
// the configured base, saturates at the cap, and jitters within
// [wait/2, wait] — deterministically, so timing is reproducible.
func TestBackoffWaitGrowthAndJitterWindow(t *testing.T) {
	base := 100 * time.Millisecond
	c := New("http://x", WithRetry(20, base))
	for attempt := 1; attempt <= 16; attempt++ {
		exact := base << (attempt - 1)
		if exact <= 0 || exact > maxBackoff {
			exact = maxBackoff
		}
		w := c.backoffWait(attempt)
		if w < exact/2 || w > exact {
			t.Fatalf("attempt %d: wait %v outside jitter window [%v, %v]", attempt, w, exact/2, exact)
		}
		if again := c.backoffWait(attempt); again != w {
			t.Fatalf("attempt %d: jitter not deterministic (%v then %v)", attempt, w, again)
		}
	}
}

func TestBackoffWaitZeroBase(t *testing.T) {
	c := New("http://x", WithRetry(3, 0))
	if w := c.backoffWait(5); w != 0 {
		t.Fatalf("zero base produced wait %v", w)
	}
}

// TestBackoffWaitDecorrelatesClients: two clients of the same daemon
// must not retry in lockstep — their per-instance salts have to spread
// at least part of the schedule apart.
func TestBackoffWaitDecorrelatesClients(t *testing.T) {
	a := New("http://same", WithRetry(10, 100*time.Millisecond))
	b := New("http://same", WithRetry(10, 100*time.Millisecond))
	differ := false
	for attempt := 1; attempt <= 10; attempt++ {
		if a.backoffWait(attempt) != b.backoffWait(attempt) {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("two clients share an identical 10-attempt retry schedule")
	}
}

// stubTransport hands back a canned response without touching the
// network.
type stubTransport struct {
	resp func() *http.Response
}

func (s stubTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return s.resp(), nil
}

// failingBody errors on the first read, optionally canceling a context
// first — simulating a response body cut off mid-read.
type failingBody struct {
	cancel context.CancelFunc
}

func (b *failingBody) Read([]byte) (int, error) {
	if b.cancel != nil {
		b.cancel()
	}
	return 0, errors.New("connection reset mid-body")
}

func (b *failingBody) Close() error { return nil }

// TestOnceBodyFailure pins the retriability split of mid-body read
// failures: transient (retry) when the network dropped the body, final
// (no retry) when the read failed because the caller's own context was
// canceled — mirroring the transport-error path.
func TestOnceBodyFailure(t *testing.T) {
	mk := func(body *failingBody) *Client {
		hc := &http.Client{Transport: stubTransport{resp: func() *http.Response {
			return &http.Response{
				StatusCode: http.StatusOK,
				Body:       body,
				Header:     make(http.Header),
				Request:    &http.Request{},
			}
		}}}
		return New("http://stub", WithHTTPClient(hc))
	}

	t.Run("network cut is transient", func(t *testing.T) {
		c := mk(&failingBody{})
		retriable, _, err := c.once(context.Background(), http.MethodGet, "/v1/healthz", nil, nil, false)
		if err == nil || !strings.Contains(err.Error(), "mid-body") {
			t.Fatalf("err = %v, want mid-body read failure", err)
		}
		if !retriable {
			t.Fatal("network mid-body failure must be retriable")
		}
	})

	t.Run("caller cancel is final", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c := mk(&failingBody{cancel: cancel})
		retriable, _, err := c.once(ctx, http.MethodGet, "/v1/healthz", nil, nil, false)
		if err == nil {
			t.Fatal("expected a read error")
		}
		if retriable {
			t.Fatal("mid-body failure under a canceled caller context must be final")
		}
	})
}
