package server

import (
	"net/http"
	"strconv"

	"geofootprint/internal/search"
)

// Analytics endpoints on top of the core CRUD/search API:
//
//	GET  /v1/pairs?k=20          the k most similar user pairs

// RegisterExtras wires the analytics routes. It is called by New; the
// split keeps the route tables readable.
func (s *Server) registerExtras() {
	s.mux.HandleFunc("GET /v1/users", s.handleListUsers)
	s.mux.HandleFunc("GET /v1/pairs", s.gated(s.handlePairs))
	s.mux.HandleFunc("GET /v1/explain", s.handleExplain)
}

type contributionJSON struct {
	Overlap [4]float64 `json:"overlap"`
	Share   float64    `json:"share"`
	Value   float64    `json:"value"`
}

type explanationJSON struct {
	Similarity    float64            `json:"similarity"`
	Contributions []contributionJSON `json:"contributions"`
	PairsExamined int                `json:"pairs_examined"`
}

// handleExplain answers "why are a and b similar": ?a=&b= user IDs,
// optional ?pairs= truncation (default 5).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	a, errA := strconv.Atoi(q.Get("a"))
	b, errB := strconv.Atoi(q.Get("b"))
	if errA != nil || errB != nil {
		writeError(w, http.StatusBadRequest, "need integer ?a= and ?b=")
		return
	}
	pairs := 5
	if v := q.Get("pairs"); v != "" {
		var err error
		if pairs, err = strconv.Atoi(v); err != nil || pairs < 1 || pairs > 1000 {
			writeError(w, http.StatusBadRequest, "bad pairs %q", v)
			return
		}
	}
	v, _ := s.acquire()
	db := v.DB()
	ia, okA := db.IndexOf(a)
	ib, okB := db.IndexOf(b)
	if !okA || !okB {
		writeError(w, http.StatusNotFound, "unknown user")
		return
	}
	ex := search.Explain(db.Row(ia), db.Row(ib),
		db.Norm(ia), db.Norm(ib), pairs)
	out := explanationJSON{
		Similarity:    ex.Similarity,
		PairsExamined: ex.PairsExamined,
		Contributions: make([]contributionJSON, len(ex.Contributions)),
	}
	for i, c := range ex.Contributions {
		out.Contributions[i] = contributionJSON{
			Overlap: [4]float64{c.Overlap.MinX, c.Overlap.MinY, c.Overlap.MaxX, c.Overlap.MaxY},
			Share:   c.Share,
			Value:   c.Value,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

type userSummaryJSON struct {
	ID      int     `json:"id"`
	Regions int     `json:"regions"`
	Norm    float64 `json:"norm"`
}

type userListJSON struct {
	Total int               `json:"total"`
	Users []userSummaryJSON `json:"users"`
	// Next is the offset of the following page, or -1 on the last.
	Next int `json:"next"`
}

// handleListUsers pages through the corpus: ?offset= and ?limit=
// (default 100, max 1000). Tombstoned users are skipped. The page is
// read from one epoch, so it is internally consistent even
// under concurrent mutation.
func (s *Server) handleListUsers(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	offset, limit := 0, 100
	var err error
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, "bad offset %q", v)
			return
		}
	}
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 1 || limit > 1000 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
	}
	v, _ := s.acquire()
	db := v.DB()
	out := userListJSON{Total: db.Len(), Next: -1, Users: []userSummaryJSON{}}
	i := offset
	for ; i < db.Len() && len(out.Users) < limit; i++ {
		n := db.RowLen(i)
		if n == 0 {
			continue
		}
		out.Users = append(out.Users, userSummaryJSON{
			ID:      db.IDs[i],
			Regions: n,
			Norm:    db.Norm(i),
		})
	}
	if i < db.Len() {
		out.Next = i
	}
	writeJSON(w, http.StatusOK, out)
}

type pairJSON struct {
	A          int     `json:"a"`
	B          int     `json:"b"`
	Similarity float64 `json:"similarity"`
}

func (s *Server) handlePairs(w http.ResponseWriter, r *http.Request) {
	k := 20
	if kq := r.URL.Query().Get("k"); kq != "" {
		var err error
		if k, err = strconv.Atoi(kq); err != nil || k < 1 || k > 10000 {
			writeError(w, http.StatusBadRequest, "bad k %q", kq)
			return
		}
	}
	v, _ := s.acquire()
	pairs, err := search.TopSimilarPairs(r.Context(), v.Index(), k, 0)
	if writeQueryCtxErr(w, err) {
		return
	}
	out := make([]pairJSON, len(pairs))
	for i, p := range pairs {
		out[i] = pairJSON{A: p.A, B: p.B, Similarity: p.Score}
	}
	writeJSON(w, http.StatusOK, out)
}
