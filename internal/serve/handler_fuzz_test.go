package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzServer is a server with one open-window tenant "alpha": a window
// far longer than any fuzz run, so ingest never races a decision.
func fuzzServer(f *testing.F) *Server {
	s := NewServer(Config{Unit: time.Millisecond})
	f.Cleanup(s.Close)
	if err := s.CreateTenant("alpha", TenantConfig{Tout: 1e6, Nodes: 16, Shards: 2}); err != nil {
		f.Fatal(err)
	}
	return s
}

// serveBody sends one request through the handler and checks the reply
// contract every endpoint shares: a 2xx or a 4xx, never a 5xx or a
// panic, and a 4xx carries the JSON error envelope.
func serveBody(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	switch {
	case w.Code >= 200 && w.Code < 300:
	case w.Code >= 400 && w.Code < 500:
		var e errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s %s %q: HTTP %d with body %q, want a JSON error", method, path, body, w.Code, w.Body.Bytes())
		}
	default:
		t.Fatalf("%s %s %q: HTTP %d: %s, want 2xx or 4xx", method, path, body, w.Code, w.Body.Bytes())
	}
	return w
}

// FuzzHandleReports drives the JSON ingest body. Whatever it accepts
// must account for every report it was sent.
func FuzzHandleReports(f *testing.F) {
	for _, seed := range []string{
		``, `{}`, `{"nodes":[]}`, `{"nodes":[0,1,2]}`, `{"nodes":[0,99,1]}`, `{"nodes":[-1]}`,
		`{"nodes":null}`, `{"nodes":[1.5]}`, `{"nodes":"0"}`, `[0,1]`, `{"nodes":[0]}{"nodes":[1]}`,
		`{"nodes":[9223372036854775807]}`, `{"nodes":[1e3]}`, `{"nodes":[0`,
	} {
		f.Add([]byte(seed))
	}
	h := fuzzServer(f).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := serveBody(t, h, http.MethodPost, "/v1/tenants/alpha/reports", body)
		if w.Code != http.StatusOK {
			return
		}
		var req reportRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted %q that does not decode: %v", body, err)
		}
		var ack reportReply
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
			t.Fatalf("reply %q not JSON: %v", w.Body.Bytes(), err)
		}
		if ack.Accepted+ack.Rejected != len(req.Nodes) || ack.Accepted == 0 {
			t.Fatalf("body %q: ack %+v does not account for %d reports", body, ack, len(req.Nodes))
		}
	})
}

// FuzzHandleCreateTenant drives the tenant-config body. An accepted
// config must yield a live tenant, which is dropped again so the next
// input starts from the same server.
func FuzzHandleCreateTenant(f *testing.F) {
	for _, seed := range []string{
		``, `{}`, `{"scheme":"tibfit","tout":50,"nodes":4}`, `{"scheme":"nope"}`,
		`{"members":[3,1,2],"shards":2}`, `{"members":[1,1]}`, `{"members":[-5,7]}`,
		`{"nodes":-3,"shards":-1}`, `{"lambda":-1}`, `{"fault_rate":2}`, `{"removal_threshold":5}`,
		`{"tout":-1}`, `{"nodes":1000000000000}`, `{"shards":100000,"nodes":8}`, `null`, `[]`, `{"tout":"x"}`,
	} {
		f.Add([]byte(seed))
	}
	s := fuzzServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := serveBody(t, h, http.MethodPost, "/v1/tenants/fz", body)
		if w.Code != http.StatusCreated {
			return
		}
		if !s.DropTenant("fz") {
			t.Fatalf("config %q: 201 but no tenant", body)
		}
	})
}

// FuzzHandleRestore drives PUT .../snapshot with arbitrary blobs, seeded
// with a genuine sealed snapshot and a tampered copy. A blob that
// restores must leave a tenant that still serves its own snapshot.
func FuzzHandleRestore(f *testing.F) {
	s := fuzzServer(f)
	inst, _ := s.Tenant("alpha")
	blob, err := inst.SealedSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	tampered := append([]byte(nil), blob...)
	tampered[len(tampered)-1] ^= 1
	f.Add(blob)
	f.Add(tampered)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Add([]byte(`{"trust":{}}`))
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := serveBody(t, h, http.MethodPut, "/v1/tenants/alpha/snapshot", body)
		if w.Code != http.StatusOK {
			return
		}
		serveBody(t, h, http.MethodGet, "/v1/tenants/alpha/snapshot", nil)
	})
}
