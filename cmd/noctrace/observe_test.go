package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"powerpunch/internal/serve"
)

// TestTraceMatchesStream: noctrace trace and POST /api/v1/stream build
// the same JobSpec and run it through the same path, so for the same
// flags the CLI's JSONL is byte for byte the streamed event lines.
func TestTraceMatchesStream(t *testing.T) {
	srv, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	for _, tc := range []struct {
		name  string
		args  []string
		kinds string
	}{
		{"synthetic", []string{"-width", "4", "-height", "4", "-rate", "0.05", "-warmup", "100", "-cycles", "300", "-seed", "3"}, ""},
		{"bench", []string{"-width", "4", "-height", "4", "-bench", "canneal", "-instr", "300"}, "inject,eject,pg_wake,wl_miss,wl_fill,wl_dir"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.kinds != "" {
				args = append(args, "-kinds", tc.kinds)
			}
			tf, err := parseTrace(args)
			if err != nil {
				t.Fatal(err)
			}
			var cli bytes.Buffer
			tw, _, err := writeTrace(&cli, tf.spec, tf.kinds)
			if err != nil {
				t.Fatal(err)
			}
			if tw.Events() == 0 {
				t.Fatal("trace wrote no events")
			}

			body, err := json.Marshal(serve.StreamSpec{JobSpec: tf.spec, Kinds: tc.kinds})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/api/v1/stream", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var streamed bytes.Buffer
			if _, err := streamed.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("stream = %d (%s)", resp.StatusCode, streamed.Bytes())
			}
			// Drop the stream_end terminator: the rest is the event trace.
			lines := bytes.TrimSuffix(streamed.Bytes(), []byte("\n"))
			events := lines[:bytes.LastIndexByte(lines, '\n')+1]
			if !bytes.Equal(events, cli.Bytes()) {
				t.Errorf("streamed events (%d bytes) differ from the CLI trace (%d bytes)", len(events), cli.Len())
			}
		})
	}
}
