package server

import (
	"encoding/json"
	"net/http"

	"zombie/internal/dist"
	"zombie/internal/otrace"
)

// The /dist/* endpoints make any zombie-serve process a distributed-run
// worker: a coordinator (another zombie-serve, or a test harness) POSTs
// the dist wire types here and this server executes the steps against its
// own registered corpora, extraction cache, and telemetry registry. The
// error convention is the server's usual {"error": "..."} body; the HTTP
// transport surfaces that message verbatim, which is what keeps failures
// byte-identical to the in-process local transport.
//
// Trace context arrives twice on a traced coordinator's requests: as the
// wire field and mirrored in the standard W3C `traceparent` header. The
// wire field wins; the header fallback keeps propagation working for
// coordinators (or middleware) that only speak the header.

// writeCompactJSON is writeJSON without indentation, for the
// worker-internal /dist/* replies only: they are read by the coordinator's
// transport, never by a person, and indenting would copy the whole reply
// (for /dist/holdout, the whole encoded holdout) a second time.
func writeCompactJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// fillTraceparent backfills an empty wire-field traceparent from the
// request's W3C header.
func fillTraceparent(tp *string, r *http.Request) {
	if *tp == "" {
		*tp = r.Header.Get(otrace.Header)
	}
}

func (s *Server) handleDistInit(w http.ResponseWriter, r *http.Request) {
	var req dist.InitRequest
	if !readJSON(w, r, &req) {
		return
	}
	fillTraceparent(&req.Traceparent, r)
	resp, err := s.distWorker.Init(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeCompactJSON(w, resp)
}

func (s *Server) handleDistHoldout(w http.ResponseWriter, r *http.Request) {
	var req dist.HoldoutRequest
	if !readJSON(w, r, &req) {
		return
	}
	fillTraceparent(&req.Traceparent, r)
	resp, err := s.distWorker.Holdout(req)
	if err == nil {
		err = resp.EncodeResults()
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeCompactJSON(w, resp)
}

func (s *Server) handleDistStepBatch(w http.ResponseWriter, r *http.Request) {
	var req dist.StepBatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	fillTraceparent(&req.Traceparent, r)
	resp, err := s.distWorker.StepBatch(req)
	if err == nil {
		err = resp.EncodeResults()
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeCompactJSON(w, resp)
}

func (s *Server) handleDistFinish(w http.ResponseWriter, r *http.Request) {
	var req dist.FinishRequest
	if !readJSON(w, r, &req) {
		return
	}
	fillTraceparent(&req.Traceparent, r)
	resp, err := s.distWorker.Finish(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeCompactJSON(w, resp)
}
