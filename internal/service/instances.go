package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/solution"
)

// The live-instance surface of antennad, backed by instance.Manager:
//
//	POST   /instances           — create an instance (201, Location header)
//	GET    /instances           — list instances
//	GET    /instances/{id}      — current artifact; ?rev=N for history,
//	                              ?delta=1 for the ADLT delta against rev-1
//	PATCH  /instances/{id}      — apply a mutation batch → next revision;
//	                              If-Match (or body if_match) makes it
//	                              conditional: stale revisions answer 409
//	DELETE /instances/{id}      — drop the instance
//
// Every mutating response carries X-Repair (incremental|full|none) — plus
// X-Repair-Class (emst|tour|bats) when incremental — and an ETag holding
// the revision, so clients can chain conditional batches.
// Semantics are documented in docs/OPERATIONS.md ("Instances & churn").

// InstanceSolver adapts the engine's full solve path to the instance
// manager's SolveFunc. It skips Solve's latency histograms, so they
// count /orient requests only; the manager times revisions itself.
func (e *Engine) InstanceSolver() instance.SolveFunc {
	return func(ctx context.Context, pts []geom.Point, b instance.Budget) (*solution.Solution, error) {
		sol, _, err := e.solve(ctx, Request{Pts: pts, K: b.K, Phi: b.Phi, Algo: b.Algo, Objective: b.Objective})
		return sol, err
	}
}

// NewInstanceManager builds a live-instance manager that full-solves
// through the engine, honoring the engine's RepairThreshold,
// InstanceHistory, VerifyAuditEvery, and InstanceWAL options.
func NewInstanceManager(e *Engine) *instance.Manager {
	return instance.NewManager(instance.Config{
		Solve:            e.InstanceSolver(),
		RepairThreshold:  e.opts.RepairThreshold,
		History:          e.opts.InstanceHistory,
		VerifyAuditEvery: e.opts.VerifyAuditEvery,
		WAL:              e.opts.InstanceWAL,
	})
}

// instanceCreateRequest is the POST /instances body: the orient request
// vocabulary plus an optional client-chosen id.
type instanceCreateRequest struct {
	ID        string         `json:"id,omitempty"`
	Points    []geom.Point   `json:"points,omitempty"`
	Gen       *wireGen       `json:"gen,omitempty"`
	K         int            `json:"k"`
	Phi       float64        `json:"phi"`
	Algo      string         `json:"algo,omitempty"`
	Objective *wireObjective `json:"objective,omitempty"`
}

// instancePatchRequest is the PATCH /instances/{id} body.
type instancePatchRequest struct {
	Ops []solution.PointOp `json:"ops"`
	// IfMatch, when non-zero, conditions the batch on the instance still
	// being at that revision; the If-Match header takes precedence.
	IfMatch uint64 `json:"if_match,omitempty"`
}

// instanceRevisionResponse is the envelope for create/patch responses —
// revision bookkeeping plus the verification verdict; the full artifact
// is one GET away and deltas are served explicitly.
type instanceRevisionResponse struct {
	ID        string  `json:"id"`
	Rev       uint64  `json:"rev"`
	N         int     `json:"n"`
	Algo      string  `json:"algo"`
	Verified  bool    `json:"verified"`
	Repair    string  `json:"repair"`
	Class     string  `json:"repair_class,omitempty"`
	DirtyFrac float64 `json:"dirty_fraction"`
	Changed   int     `json:"changed"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func revisionResponse(s *instance.Snapshot) instanceRevisionResponse {
	return instanceRevisionResponse{
		ID: s.ID, Rev: s.Rev, N: s.Sol.N, Algo: s.Sol.Algo, Verified: s.Sol.Verified,
		Repair: s.Repair, Class: s.Class, DirtyFrac: s.DirtyFrac, Changed: s.Changed,
		ElapsedMS: float64(s.Elapsed.Microseconds()) / 1000,
	}
}

// instanceError maps manager errors onto the HTTP vocabulary.
func (s *Server) instanceError(w http.ResponseWriter, err error) {
	if s.contextError(w, err) {
		return
	}
	switch {
	case errors.Is(err, instance.ErrConflict), errors.Is(err, instance.ErrExists):
		httpError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, instance.ErrNotFound):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, instance.ErrEvicted):
		httpError(w, http.StatusGone, "%v", err)
	case errors.Is(err, instance.ErrFull):
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, instance.ErrDurability):
		// The WAL could not acknowledge the mutation (disk trouble); the
		// state is unchanged and the batch is safe to retry.
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// markRevision stamps the revision headers shared by every instance
// response; class is empty except on incrementally repaired revisions.
func markRevision(w http.ResponseWriter, rev uint64, repair, class string) {
	w.Header().Set("ETag", fmt.Sprintf("%q", strconv.FormatUint(rev, 10)))
	w.Header().Set("X-Repair", repair)
	if class != "" {
		w.Header().Set("X-Repair-Class", class)
	}
}

func (s *Server) handleInstanceCreate(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var body instanceCreateRequest
	if !decodeJSON(w, r, &body) {
		return
	}
	pts, err := (orientRequest{Points: body.Points, Gen: body.Gen}).points()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	b := instance.Budget{K: body.K, Phi: body.Phi, Algo: body.Algo}
	if body.Objective != nil {
		if body.Algo != "" {
			httpError(w, http.StatusBadRequest, "request has both algo and objective")
			return
		}
		if b.Objective, err = body.Objective.toObjective(); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if s.expired(w, ctx) {
		return
	}
	snap, err := s.instances.Create(ctx, body.ID, pts, b)
	if err != nil {
		s.instanceError(w, err)
		return
	}
	markRevision(w, snap.Rev, snap.Repair, snap.Class)
	w.Header().Set("Location", "/instances/"+snap.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(revisionResponse(snap))
}

func (s *Server) handleInstanceList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.instances.List())
}

func (s *Server) handleInstanceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var rev uint64
	if q := r.URL.Query().Get("rev"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad rev %q", q)
			return
		}
		rev = v
	}
	snap, err := s.instances.Get(id, rev)
	if err != nil {
		s.instanceError(w, err)
		return
	}
	if q := r.URL.Query().Get("delta"); q != "" && q != "0" && q != "false" {
		delta, err := s.instances.Delta(id, rev)
		if err != nil {
			s.instanceError(w, err)
			return
		}
		markRevision(w, snap.Rev, snap.Repair, snap.Class)
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(delta)
		return
	}
	_, endEncode := obs.StartSpan(r.Context(), "encode")
	data, err := snap.Sol.EncodeJSON()
	endEncode()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	markRevision(w, snap.Rev, snap.Repair, snap.Class)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleInstancePatch(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var body instancePatchRequest
	if !decodeJSON(w, r, &body) {
		return
	}
	ifMatch := body.IfMatch
	if h := strings.Trim(r.Header.Get("If-Match"), `" `); h != "" {
		v, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad If-Match %q (want a revision number)", r.Header.Get("If-Match"))
			return
		}
		ifMatch = v
	}
	if s.expired(w, ctx) {
		return
	}
	snap, err := s.instances.Apply(ctx, r.PathValue("id"), ifMatch, body.Ops)
	if err != nil {
		s.instanceError(w, err)
		return
	}
	obs.Annotate(ctx, "repair", snap.Repair)
	if snap.Class != "" {
		obs.Annotate(ctx, "repair_class", snap.Class)
	}
	markRevision(w, snap.Rev, snap.Repair, snap.Class)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(revisionResponse(snap))
}

func (s *Server) handleInstanceDelete(w http.ResponseWriter, r *http.Request) {
	if !s.instances.Delete(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, "no instance %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
