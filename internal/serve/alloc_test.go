package serve

import (
	"bytes"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// replyRecorder is a reusable http.ResponseWriter: unlike
// httptest.ResponseRecorder it keeps its header map and body buffer
// across requests, so only the handler's own allocations are counted.
type replyRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *replyRecorder) Header() http.Header         { return r.header }
func (r *replyRecorder) WriteHeader(status int)      { r.status = status }
func (r *replyRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// TestBatchHandlerAllocsFlatInBatchSize is the allocation backstop on the
// line-format handler itself: warm batches posted through
// Handler().ServeHTTP into an open window may pay a fixed per-request
// cost, but nothing per report, so a 256-report body allocates no more
// than a 64-report one.
func TestBatchHandlerAllocsFlatInBatchSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so the pooled scratch allocates by design")
	}
	s := NewServer(Config{Unit: time.Millisecond})
	defer s.Close()
	// A window far longer than the test keeps the first batch's window
	// open throughout, so no decision or timer runs while measuring.
	if err := s.CreateTenant("alpha", TenantConfig{Tout: 1e6, Nodes: 256, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	perRequest := func(reports int) float64 {
		var body []byte
		for i := 0; i < reports; i++ {
			body = strconv.AppendInt(body, int64((i*7)%256), 10)
			body = append(body, '\n')
		}
		rd := bytes.NewReader(body)
		req, err := http.NewRequest(http.MethodPost, "/v1/tenants/alpha/reports/batch", rd)
		if err != nil {
			t.Fatal(err)
		}
		w := &replyRecorder{header: make(http.Header)}
		post := func() {
			rd.Reset(body)
			w.body.Reset()
			h.ServeHTTP(w, req)
		}
		post()
		if w.status != http.StatusOK {
			t.Fatalf("%d-report batch: HTTP %d: %s", reports, w.status, w.body.Bytes())
		}
		return testing.AllocsPerRun(200, post)
	}

	small, large := perRequest(64), perRequest(256)
	t.Logf("allocs per request: %v at 64 reports, %v at 256", small, large)
	if large-small > 1 {
		t.Fatalf("256-report batch allocates %v per request vs %v at 64: allocation grows with batch size", large, small)
	}
}
