package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cogdiff/internal/fuzzer"
	"cogdiff/internal/server"
)

// maxBodyBytes is the server's request-body bound.
const maxBodyBytes = 8 << 20

// send makes one request and returns its status code and body.
func send(t *testing.T, method, url string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// padded returns doc followed by spaces up to the body bound and then
// garbage past it: invalid JSON whose first maxBodyBytes bytes alone
// are valid.
func padded(doc []byte) []byte {
	body := append([]byte{}, doc...)
	body = append(body, bytes.Repeat([]byte(" "), maxBodyBytes-len(doc))...)
	return append(body, "garbage"...)
}

// TestOversizedBodiesRejected pins the request-body bound: a job spec or
// corpus document over it is refused whole with 413, never cut to a
// prefix that might still parse and be acted on.
func TestOversizedBodiesRejected(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	spec, err := json.Marshal(server.JobSpec{Type: server.JobDifftest,
		Difftest: &server.DifftestSpec{Instruction: "primAdd", Compiler: "simple"}})
	if err != nil {
		t.Fatal(err)
	}
	longSpec, err := json.Marshal(server.JobSpec{Type: server.JobDifftest,
		Difftest: &server.DifftestSpec{Instruction: strings.Repeat("x", maxBodyBytes), Compiler: "simple"}})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := fuzzer.MarshalCorpus(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, method, path string
		body               []byte
	}{
		{"job spec, garbage past the bound", http.MethodPost, "/v1/jobs", padded(spec)},
		{"job spec longer than the bound", http.MethodPost, "/v1/jobs", longSpec},
		{"corpus document, garbage past the bound", http.MethodPut, "/v1/corpus", padded(corpus)},
	} {
		if code, msg := send(t, c.method, ts.URL+c.path, c.body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d %s, want 413", c.name, code, msg)
		}
	}
	if code, msg := send(t, http.MethodGet, ts.URL+"/v1/jobs", nil); code != http.StatusOK || strings.Contains(msg, `"id"`) {
		t.Errorf("jobs after refused submissions: %d %s, want 200 and no job", code, msg)
	}
	if code, msg := send(t, http.MethodPut, ts.URL+"/v1/corpus", corpus); code != http.StatusOK {
		t.Errorf("corpus document within the bound: %d %s, want 200", code, msg)
	}
}
