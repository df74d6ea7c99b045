package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"analogfold/internal/fault"
	"analogfold/internal/serve"
)

// TestSharedRequestFront pins the request front every work endpoint of both
// tiers shares: the daemon's /v1/guidance, /v1/route and /v1/dataset/shard
// and the coordinator's /v1/guidance, /v1/route and /v1/dataset. Each must
// refuse anything but POST with 405 and Allow: POST, answer a malformed or
// oversized body with a typed invalid-input 400, and echo a caller's
// X-Request-ID or mint one. The passing bodies decode but fail fast behind
// the front (unknown benchmark, zero samples, a coordinator without
// replicas), so no endpoint runs real work.
func TestSharedRequestFront(t *testing.T) {
	daemon := httptest.NewServer(serve.New(nil, serve.Config{Opts: testOpts()}).Handler())
	defer daemon.Close()
	coord := New(Config{})
	defer coord.stopProbers()
	front := httptest.NewServer(coord.Handler())
	defer front.Close()

	oversized := `{"bench":"` + strings.Repeat("x", 1<<20) + `"}`
	for _, tc := range []struct {
		name, url, passing string
	}{
		{"daemon guidance", daemon.URL + "/v1/guidance", `{"bench":"NOPE-A"}`},
		{"daemon route", daemon.URL + "/v1/route", `{"bench":"NOPE-A"}`},
		{"daemon shard", daemon.URL + "/v1/dataset/shard", `{"bench":"OTA1-A","samples":0}`},
		{"coordinator guidance", front.URL + "/v1/guidance", `{"bench":"OTA1-A"}`},
		{"coordinator route", front.URL + "/v1/route", `{"bench":"OTA1-A"}`},
		{"coordinator dataset", front.URL + "/v1/dataset", `{"bench":"OTA1-A","samples":0}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(tc.url)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
				t.Errorf("GET = %d Allow %q, want 405 Allow POST", resp.StatusCode, resp.Header.Get("Allow"))
			}

			for what, body := range map[string]string{"malformed": `{not json`, "oversized": oversized} {
				resp, b := postJSON(t, tc.url, body)
				var eb serve.ErrorBody
				if err := json.Unmarshal(b, &eb); err != nil {
					t.Fatalf("%s body: %d %q is not an error body: %v", what, resp.StatusCode, b, err)
				}
				if resp.StatusCode != http.StatusBadRequest || eb.Error.Kind != fault.ErrInvalidInput.Error() {
					t.Errorf("%s body = %d kind %q, want 400 %q", what, resp.StatusCode, eb.Error.Kind, fault.ErrInvalidInput)
				}
			}

			req, err := http.NewRequest(http.MethodPost, tc.url, strings.NewReader(tc.passing))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(serve.HeaderRequestID, "front-test-id")
			resp, err = http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got := resp.Header.Get(serve.HeaderRequestID); got != "front-test-id" {
				t.Errorf("caller's request ID echoed as %q (status %d)", got, resp.StatusCode)
			}
			resp, _ = postJSON(t, tc.url, tc.passing)
			if resp.Header.Get(serve.HeaderRequestID) == "" {
				t.Errorf("no request ID minted (status %d)", resp.StatusCode)
			}
		})
	}
}
