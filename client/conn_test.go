package client_test

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"faultroute/client"
)

// TestDoReusesOneConnection runs 50 fresh and then 50 cached Dos,
// one after the other, from one client over a transport that counts
// its dials. The service ends each event stream a moment after its last
// event, as a slower network would deliver the end. A fresh Do reads
// its stream to the end all the same, and a cached one its JSON body,
// so every exchange hands its connection back for the next one: the
// client dials once.
func TestDoReusesOneConnection(t *testing.T) {
	var dials atomic.Int64
	tr := http.DefaultTransport.(*http.Transport).Clone()
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(ctx, network, addr)
	}
	t.Cleanup(tr.CloseIdleConnections)
	counts := &transportCounts{linger: 2 * time.Millisecond}
	c := newCountingService(t, counts, client.WithHTTPClient(&http.Client{Transport: tr}))
	for _, phase := range []string{"fresh", "cached"} {
		for i := range 50 {
			doLocalBytes(t, c, inlineFixture(uint64(100+i)))
		}
		if got, want := tally(counts), (requestTally{submits: 50}); phase == "fresh" && got != want {
			t.Fatalf("fresh Dos: requests %+v, want %+v", got, want)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("100 sequential Dos dialed %d connections, want 1", n)
	}
}
