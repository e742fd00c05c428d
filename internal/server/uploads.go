package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"codelayout/internal/store"
)

// Resumable chunked uploads (registered only with Config.Uploads set):
//
//	POST   /v1/uploads                create a session → {id, offset: 0}
//	GET    /v1/uploads/{id}           current durable offset
//	PATCH  /v1/uploads/{id}           append bytes at Upload-Offset
//	DELETE /v1/uploads/{id}           discard the session
//	POST   /v1/uploads/{id}/finalize  submit the spooled trace as a job
//	       ?prog=<program>&opt=<optimizer>[&prune=<topN>]
//
// Every PATCH must carry an Upload-Offset header equal to the session's
// current offset; a mismatch gets 409 with the durable offset in both
// the Upload-Offset response header and the JSON body, and a client
// whose PATCH died mid-flight re-GETs the offset and resumes from
// there. Appends are all-or-nothing (store.Upload), so the reported
// offset is always a durable prefix of the logical stream.
//
// In a cluster these endpoints never forward: the spool lives on the
// node that created the session, so the whole upload sequence targets
// one node; the finalized job's result is content-addressed and
// replicates like any other.

// uploadView is the wire representation of an upload session. SHA256 is
// the digest of the durable prefix, so a client resuming after a daemon
// (or client) crash can verify the bytes the server holds are the bytes
// it sent; Recovered marks sessions adopted from a previous process.
type uploadView struct {
	ID        string `json:"id"`
	Offset    int64  `json:"offset"`
	SHA256    string `json:"sha256,omitempty"`
	Recovered bool   `json:"recovered,omitempty"`
}

func (s *Server) handleUploadCreate(w http.ResponseWriter, r *http.Request) {
	up, err := s.uploads.Create()
	if err != nil {
		if errors.Is(err, store.ErrTooManySessions) {
			tooBusy(w, err)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.logger.Info("upload session created", "upload", up.ID)
	writeJSON(w, http.StatusCreated, uploadView{ID: up.ID, Offset: 0})
}

func (s *Server) handleUploadStatus(w http.ResponseWriter, r *http.Request) {
	up, ok := s.uploads.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("unknown upload"))
		return
	}
	writeJSON(w, http.StatusOK, uploadView{
		ID:        up.ID,
		Offset:    up.Offset(),
		SHA256:    up.DigestHex(),
		Recovered: up.Recovered,
	})
}

func (s *Server) handleUploadPatch(w http.ResponseWriter, r *http.Request) {
	up, ok := s.uploads.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("unknown upload"))
		return
	}
	offStr := r.Header.Get("Upload-Offset")
	off, err := strconv.ParseInt(offStr, 10, 64)
	if offStr == "" || err != nil || off < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing or invalid Upload-Offset header %q", offStr))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxTraceBytes)
	newOff, resumed, err := up.Append(off, body)
	// The durable offset rides every response so a client can resync
	// without a separate GET.
	w.Header().Set("Upload-Offset", strconv.FormatInt(newOff, 10))
	switch {
	case err == nil:
		if resumed {
			s.metrics.uploadResumes.Inc()
			s.logger.Info("upload resumed", "upload", up.ID, "offset", off)
		}
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, store.ErrOffsetMismatch) || errors.Is(err, store.ErrUploadSealed):
		httpError(w, http.StatusConflict, fmt.Errorf("%w (current offset %d)", err, newOff))
	case errors.Is(err, store.ErrUploadTooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, err)
	default:
		// Mid-body failure: the spool rolled back to newOff. The client
		// usually never sees this response (its connection is what
		// died); it re-GETs the offset and retries.
		httpError(w, badBodyStatus(err), err)
	}
}

func (s *Server) handleUploadDelete(w http.ResponseWriter, r *http.Request) {
	if !s.uploads.Discard(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, errors.New("unknown upload"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleUploadFinalize seals the session and submits its spooled bytes
// as an optimization job, streamed from disk through the submit
// pipeline: the spool becomes the job's replay source directly, nothing
// is re-buffered.
func (s *Server) handleUploadFinalize(w http.ResponseWriter, r *http.Request) {
	ctx, sub := s.newSubmissionCtx(r)
	q := r.URL.Query()
	if err := sub.resolve(s, q.Get("prog"), q.Get("opt"), q.Get("prune")); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	id := r.PathValue("id")
	path, size, err := s.uploads.Seal(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	if size == 0 {
		os.Remove(path)
		httpError(w, http.StatusBadRequest, errors.New("upload is empty"))
		return
	}
	f, err := os.Open(path)
	if err != nil {
		os.Remove(path)
		httpError(w, http.StatusInternalServerError, fmt.Errorf("opening sealed upload: %w", err))
		return
	}
	defer f.Close()
	sub.logger.Info("upload finalized", "upload", id, "bytes", size,
		"prog", sub.progName, "opt", sub.optName)

	// The sealed spool is already on disk: no tee, and the job's worker
	// takes ownership of the file for its replay pass.
	s.streamIngest(ctx, w, f, nil, path, sub)
}
