package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"geofootprint/internal/core"
	"geofootprint/internal/ingest"
	"geofootprint/internal/store"
	"geofootprint/internal/synth"
)

// Every generated input is a pure function of -seed (and, for the
// request streams, of the request's position in the stream), so two
// runs with one seed send the same bytes in the same order and a
// phase of any length can draw as many requests as it needs.

// topK is the k of every query in the ledger.
const topK = 5

// maxJitter bounds the translation that makes a corpus footprint a
// fresh, never-cached query which still overlaps its neighbourhood.
const maxJitter = 0.002

// request is one generated read: what goes on the wire, and the
// footprint the LinearScan oracle scores for it.
type request struct {
	method string
	path   string
	body   []byte
	query  core.Footprint
	search string // the shard-side method name: "" or "sketch"
	user   int    // dense corpus index of the user a GET names
}

// stream yields the i-th request of a workload's read traffic.
type stream interface {
	at(i int) request
}

// mix is the splitmix64 finaliser: a stateless hash of (seed, stream,
// position) that lets any goroutine compute any request.
func mix(seed int64, lane, i uint64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + lane*0xBF58476D1CE4E5B9 + i + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// nonEmptyUsers lists the dense indexes of users that have a
// footprint; an empty one makes a query with no answer.
func nonEmptyUsers(db *store.FootprintDB) []int {
	out := make([]int, 0, db.Len())
	for u, f := range db.Footprints {
		if len(f) > 0 {
			out = append(out, u)
		}
	}
	return out
}

// jitterStream is the all-distinct query traffic of topk_miss and
// cluster_r2: request i is the footprint of a seeded corpus user
// translated by a seeded offset of at most maxJitter per axis, posted
// as an ad-hoc query to path.
type jitterStream struct {
	db    *store.FootprintDB
	users []int
	seed  int64
	path  string
}

func newJitterStream(db *store.FootprintDB, seed int64, path string) *jitterStream {
	return &jitterStream{db: db, users: nonEmptyUsers(db), seed: seed, path: path}
}

func (s *jitterStream) at(i int) request {
	u := s.users[mix(s.seed, 1, uint64(i))%uint64(len(s.users))]
	dx := (2*unit(mix(s.seed, 2, uint64(i))) - 1) * maxJitter
	dy := (2*unit(mix(s.seed, 3, uint64(i))) - 1) * maxJitter
	q := s.db.Footprints[u].Translate(dx, dy)
	// The server sorts what it parses; sorting here first means the
	// oracle and the server score the regions in the same order.
	core.SortByMinX(q)
	return request{method: "POST", path: s.path, body: queryBody(q), query: q}
}

// queryBody encodes {"k":5,"regions":[..]}.
func queryBody(q core.Footprint) []byte {
	b := append(strconv.AppendInt([]byte(`{"k":`), topK, 10), `,"regions":`...)
	return append(append(b, regionsJSON(q)...), '}')
}

// regionsJSON encodes [{"rect":[..],"weight":w},..]: the regions of a
// query, and the whole body of PUT /v1/users/{id}. strconv's shortest
// round-trip form is what encoding/json writes, so the server parses
// back exactly the float64s in q.
func regionsJSON(q core.Footprint) []byte {
	b := make([]byte, 0, 2+96*len(q))
	b = append(b, '[')
	for i, r := range q {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"rect":[`...)
		for j, v := range [4]float64{r.Rect.MinX, r.Rect.MinY, r.Rect.MaxX, r.Rect.MaxY} {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, `],"weight":`...)
		b = strconv.AppendFloat(b, r.Weight, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, ']')
}

// zipfStream is the skewed read traffic of topk_hot and ingest_mixed:
// GET /v1/users/{id}/similar?k=5&method=sketch with ids drawn
// Zipf(s=1.1) over a fixed permutation of the corpus. Which users are
// popular is a property of the corpus, the same under every seed: a
// tenth of the requests name the most popular user, and on
// ingest_mixed, where the cache is purged under the reader, what that
// user's query costs would otherwise decide the run's median. The seed
// drives the order of the draws.
type zipfStream struct {
	db    *store.FootprintDB
	draws []int32 // dense user indexes; the stream wraps around
}

const (
	zipfS          = 1.1
	zipfDraws      = 1 << 18
	popularitySeed = 1
)

func newZipfStream(db *store.FootprintDB, seed int64) *zipfStream {
	users := nonEmptyUsers(db)
	rand.New(rand.NewSource(popularitySeed)).Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(len(users)-1))
	s := &zipfStream{db: db, draws: make([]int32, zipfDraws)}
	for i := range s.draws {
		s.draws[i] = int32(users[z.Uint64()])
	}
	return s
}

func (s *zipfStream) at(i int) request {
	u := int(s.draws[i%len(s.draws)])
	return request{
		method: "GET",
		path:   "/v1/users/" + strconv.Itoa(s.db.IDs[u]) + "/similar?k=" + strconv.Itoa(topK) + "&method=sketch",
		query:  s.db.Footprints[u],
		search: "sketch",
		user:   u,
	}
}

// Ingest traffic: synthetic trajectories (the corpus generator under
// the run's seed), flattened into one time-ordered sample stream and
// cut into NDJSON batches. Every second synthetic user writes under
// the id of an existing corpus user, the others under new ids, so
// about half the samples extend footprints and half create them.
const ingestBatchSamples = 500

type ingestStream struct {
	batches [][]ingest.Sample
	samples int
}

func newIngestStream(db *store.FootprintDB, seed int64, samples int) (*ingestStream, error) {
	// A synthetic user yields about 1 700 samples; generate a few users
	// more than the volume needs and cut the sorted stream at samples.
	users := samples/1500 + 2
	ds, _, err := synth.Generate(synth.NewConfig("ingest", users, seed))
	if err != nil {
		return nil, err
	}
	maxID := slices.Max(db.IDs)
	existing := nonEmptyUsers(db)
	perm := rand.New(rand.NewSource(seed)).Perm(len(existing))
	all := make([]ingest.Sample, 0, ds.NumLocations())
	for j := range ds.Users {
		id := maxID + 1 + j
		if j%2 == 0 {
			id = db.IDs[existing[perm[(j/2)%len(perm)]]]
		}
		for _, sess := range ds.Users[j].Sessions {
			for _, l := range sess {
				all = append(all, ingest.Sample{User: id, X: l.P.X, Y: l.P.Y, T: l.T})
			}
		}
	}
	// Stable, so that the order at equal timestamps is the generator's.
	sort.SliceStable(all, func(a, b int) bool { return all[a].T < all[b].T })
	if len(all) < samples {
		return nil, fmt.Errorf("ingest stream: generated %d samples, need %d", len(all), samples)
	}
	all = all[:samples]
	s := &ingestStream{samples: samples}
	for len(all) > 0 {
		n := min(ingestBatchSamples, len(all))
		s.batches = append(s.batches, all[:n])
		all = all[n:]
	}
	return s, nil
}

// ndjson encodes one batch as the POST /v1/ingest body.
func ndjson(batch []ingest.Sample) []byte {
	b := make([]byte, 0, 80*len(batch))
	for _, s := range batch {
		b = append(b, `{"user":`...)
		b = strconv.AppendInt(b, int64(s.User), 10)
		b = append(b, `,"x":`...)
		b = strconv.AppendFloat(b, s.X, 'g', -1, 64)
		b = append(b, `,"y":`...)
		b = strconv.AppendFloat(b, s.Y, 'g', -1, 64)
		b = append(b, `,"t":`...)
		b = strconv.AppendFloat(b, s.T, 'g', -1, 64)
		b = append(b, "}\n"...)
	}
	return b
}
