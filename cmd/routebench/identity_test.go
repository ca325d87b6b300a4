package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"testing"

	"faultroute"
	"faultroute/api"
	"faultroute/client"
	"faultroute/serve"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns everything it wrote.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	ferr := fn()
	w.Close()
	os.Stdout = orig
	if ferr != nil {
		t.Fatalf("captured run failed: %v", ferr)
	}
	return <-done
}

func TestJSONOutputByteIdenticalAcrossAllThreeEntryPoints(t *testing.T) {
	// The acceptance criterion of the Runner redesign: the same request
	// through `routebench -format json`, through faultroute.Local, and
	// through the HTTP client against a faultrouted service must produce
	// byte-identical canonical JSON.
	req := api.Request{
		Kind:       api.KindExperiment,
		Experiment: &api.ExperimentSpec{ID: "E5", Seed: 1, Scale: "quick"},
	}

	viaCLI := captureStdout(t, func() error {
		return run([]string{"-exp", "E5", "-seed", "1", "-scale", "quick", "-format", "json"})
	})

	viaLocal, err := faultroute.NewLocal().Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	svc := serve.New(serve.Options{Workers: 2, Executors: 2, QueueDepth: 8})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	viaClient, err := client.New(ts.URL).
		Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(viaCLI, viaLocal.Body) {
		t.Errorf("CLI and Local bytes differ:\ncli:   %s\nlocal: %s", viaCLI, viaLocal.Body)
	}
	if !bytes.Equal(viaLocal.Body, viaClient.Body) {
		t.Errorf("Local and client bytes differ:\nlocal:  %s\nclient: %s", viaLocal.Body, viaClient.Body)
	}
	if viaLocal.Key != viaClient.Key {
		t.Errorf("content addresses differ: %s vs %s", viaLocal.Key, viaClient.Key)
	}
}

func TestFailureModelExperimentsJSONByteIdenticalToLocal(t *testing.T) {
	// E19–E21 (correlated failures and the kleinberg family) through
	// `routebench -format json` must concatenate exactly the canonical
	// documents faultroute.Local returns for the same specs.
	viaCLI := captureStdout(t, func() error {
		return run([]string{"-exp", "E19,E20,E21", "-seed", "1", "-scale", "quick", "-format", "json"})
	})

	var want bytes.Buffer
	local := faultroute.NewLocal()
	for _, id := range []string{"E19", "E20", "E21"} {
		res, err := local.Do(context.Background(), api.Request{
			Kind:       api.KindExperiment,
			Experiment: &api.ExperimentSpec{ID: id, Seed: 1, Scale: "quick"},
		})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want.Write(res.Body)
	}
	if !bytes.Equal(viaCLI, want.Bytes()) {
		t.Errorf("CLI and Local bytes differ:\ncli:   %s\nlocal: %s", viaCLI, want.Bytes())
	}
}
