package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"cogdiff/internal/fuzzer"
	"cogdiff/internal/telemetry"
)

// maxBodyBytes bounds request bodies (job specs, corpus uploads).
const maxBodyBytes = 8 << 20

// readBody reads a request body of at most maxBodyBytes. A longer body
// is refused whole with 413 instead of being cut to a prefix that might
// still parse. ok is false once the error response has been written.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
		} else {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		}
		return nil, false
	}
	return body, true
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// Handler returns the server's HTTP API:
//
//	GET    /healthz              liveness probe ("ok")
//	GET    /metrics              Prometheus text exposition, live mid-run
//	POST   /v1/jobs              submit a JobSpec, returns JobStatus (202)
//	GET    /v1/jobs              all jobs, submission order
//	GET    /v1/jobs/{id}         one job's JobStatus
//	DELETE /v1/jobs/{id}         cancel (idempotent on terminal jobs)
//	GET    /v1/jobs/{id}/events  SSE progress stream
//	GET    /v1/corpus            shared corpus, go-fuzz-format JSON
//	PUT    /v1/corpus            merge a corpus document into the store
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	mux.HandleFunc("POST /v1/jobs", s.route("jobs-submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.route("jobs-list", s.handleJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", s.route("job-get", s.handleJob))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.route("job-cancel", s.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.route("job-events", s.handleEvents))
	mux.HandleFunc("GET /v1/corpus", s.route("corpus-get", s.handleCorpusGet))
	mux.HandleFunc("PUT /v1/corpus", s.route("corpus-put", s.handleCorpusPut))
	return mux
}

// route counts requests per logical route. The route label is a fixed
// name, not the raw path, so the metric's cardinality stays bounded.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	c := s.reg.LabeledCounter(telemetry.MetricServerHTTPRequests, "route", name)
	return func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Snapshot().WritePrometheus(w)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var spec JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err))
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j := newJob(spec)
	if err := s.enqueue(j); err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statuses())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	s.requestCancel(j)
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCorpusGet(w http.ResponseWriter, r *http.Request) {
	data, err := fuzzer.MarshalCorpus(s.corpus.Snapshot())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// corpusPutResult is the PUT /v1/corpus response.
type corpusPutResult struct {
	Received int `json:"received"`
	Added    int `json:"added"`
	Total    int `json:"total"`
}

func (s *Server) handleCorpusPut(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	seqs, err := fuzzer.UnmarshalCorpus(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	added := s.corpus.Merge(seqs)
	writeJSON(w, http.StatusOK, corpusPutResult{
		Received: len(seqs),
		Added:    added,
		Total:    s.corpus.Len(),
	})
}
