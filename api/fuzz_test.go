package api_test

import (
	"encoding/json"
	"testing"

	"faultroute/api"
)

// FuzzCompile feeds arbitrary request JSON through Compile: malformed
// specs — hostile FailSpecs and GraphSpecs above all — must be rejected
// with an error, never a panic, and anything Compile accepts must be a
// fixed point (normalizing a normalized request changes neither the
// request nor its content address) whose Total is at most
// api.MaxTrials. CI runs this as a 30s -fuzz smoke;
// the seed corpus covers every kind, every family axis, and the
// malformed shapes the validators must catch.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		// Valid representatives of all three kinds.
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"kleinberg","d":2,"side":8,"seed":3},"p":0.8,"trials":2}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"torus","side":5},"p":0.7,"trials":8,"shard":{"offset":2,"count":3}}}`,
		`{"kind":"experiment","experiment":{"id":"E19","scale":"quick"}}`,
		`{"kind":"percolation","percolation":{"graph":{"family":"mesh","side":4},"ps":[0.4,0.6],"trials":2}}`,
		// Valid failure models on both spec kinds.
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4,"fail":{"model":"region","radius":1,"count":2,"seed":9}}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4,"fail":{"model":"nodes","count":3}}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4,"fail":{"rate":0.25}}}`,
		`{"kind":"percolation","percolation":{"graph":{"family":"torus","side":5},"ps":[0.5],"trials":2,"fail":{"model":"region","radius":2,"count":1}}}`,
		// No-op failure models that must normalize away.
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4,"fail":{}}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4,"fail":{"model":"nodes"}}}`,
		// Malformed: must error, never panic.
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4,"fail":{"model":"racks"}}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4,"fail":{"model":"iid","rate":1.5}}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4,"fail":{"model":"region","rate":0.5}}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4,"fail":{"model":"nodes","count":-2}}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":4,"fail":{"model":"region","radius":99999999,"count":99999999}}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"kleinberg","side":9999},"p":0.5,"trials":1}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"kleinberg","d":-3,"side":8},"p":0.5,"trials":1}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"mesh","side":-1},"p":0.5,"trials":1}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":-6},"p":2,"trials":-1}}`,
		`{"kind":"estimate","estimate":{"graph":{"family":"gnp"},"p":0.5,"trials":1}}`,
		`{"kind":"percolation","percolation":{"graph":{"family":"ring","n":8},"ps":[],"trials":0}}`,
		`{"kind":"experiment","experiment":{"id":"E99"}}`,
		`{"kind":"warp"}`,
		`{}`,
		`not json at all`,
		// Trial counts past api.MaxTrials, alone and as a sweep product.
		`{"kind":"estimate","estimate":{"graph":{"family":"hypercube","n":6},"p":0.6,"trials":1099511627776}}`,
		`{"kind":"percolation","percolation":{"graph":{"family":"mesh","side":4},"ps":[0.4,0.6],"trials":4611686018427387904}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req api.Request
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		plan, err := api.Compile(req)
		if err != nil {
			return
		}
		// No accepted plan may run more trials than the cap allows.
		if plan.Total > api.MaxTrials {
			t.Fatalf("accepted plan runs %d trials, over api.MaxTrials", plan.Total)
		}
		// Normalization must be a fixed point: compiling the normalized
		// request reproduces it — and therefore the content address —
		// exactly. A drift here would split the result cache.
		again, err := api.Compile(plan.Request)
		if err != nil {
			t.Fatalf("normalized request does not recompile: %v\n%+v", err, plan.Request)
		}
		if again.Key != plan.Key {
			t.Fatalf("normalization is not idempotent: key %s -> %s", plan.Key, again.Key)
		}
	})
}
