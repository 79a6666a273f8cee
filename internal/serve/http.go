package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
)

// Handler returns the server's HTTP API (docs/SERVING.md):
//
//	POST   /jobs             submit a job (SubmitRequest JSON)
//	GET    /jobs             list the retained jobs
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/result values (?top=N | ?vertex=V | ?all=1)
//	GET    /jobs/{id}/report the job's RunReport artifact
//	DELETE /jobs/{id}        cancel
//	GET    /graphs           resident graphs
//	GET    /stats            admission/budget snapshot
//	GET    /metrics          Prometheus text (server + per-job series)
//	GET    /healthz          liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Job(r.PathValue("id"))
		respond(w, st, err)
	})
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		rep, err := s.Report(r.PathValue("id"))
		respond(w, rep, err)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		respond(w, st, err)
	})
	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Graphs())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.Handle("GET /metrics", s.reg.MetricsHandler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	return mux
}

// maxSubmitBytes bounds a POST /jobs body — two orders of magnitude above
// any real SubmitRequest — so a hostile request cannot allocate outside
// every serve budget.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	err := dec.Decode(&req)
	if err == nil {
		// Only whitespace may follow the object.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the request object")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errBody{Error: "request body exceeds " + strconv.FormatInt(tooBig.Limit, 10) + " bytes"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{Error: "invalid JSON: " + err.Error()})
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		respond(w, nil, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	top := 0
	if t := q.Get("top"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errBody{Error: "top must be a positive integer"})
			return
		}
		top = n
	}
	var vertex *uint32
	if v := q.Get("vertex"); v != "" {
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errBody{Error: "vertex must be a uint32"})
			return
		}
		u := uint32(n)
		vertex = &u
	}
	res, err := s.Result(r.PathValue("id"), top, vertex, q.Get("all") == "1")
	respond(w, res, err)
}

type errBody struct {
	Error string `json:"error"`
}

// respond maps the typed error classes to HTTP statuses and writes the
// payload (or the error body).
func respond(w http.ResponseWriter, payload any, err error) {
	if err == nil {
		writeJSON(w, http.StatusOK, payload)
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errBody{Error: err.Error()})
}

// writeJSON encodes before it writes the header, so a payload that
// cannot be encoded is a 500 with an errBody, not a 200 with no body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		json.NewEncoder(&buf).Encode(errBody{Error: "encoding response: " + err.Error()}) //nolint:errcheck // a string field cannot fail
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // client gone mid-write
}
