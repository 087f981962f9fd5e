package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"geofootprint/internal/ingest"
)

// IngestResult reports where a routed batch landed: one entry per
// owning shard with the WAL LSN its /v1/ingest acknowledged.
type IngestResult struct {
	// Samples is the total routed sample count.
	Samples int `json:"samples"`
	// Shards maps shard ID -> highest acknowledged LSN on that shard's
	// WAL (with replication a shard may ack several sub-batches).
	Shards map[string]uint64 `json:"shards"`
	// Hinted names the replicas that missed a sub-batch a sibling
	// acked: the batch is durable (hence no error), but these shards
	// are stale for reads until the health loop redelivers their
	// queued hints. Empty without replication.
	Hinted []string `json:"hinted,omitempty"`
}

// IngestError is a routed-batch failure with enough structure for the
// coordinator to answer honestly: which shard legs failed (and why),
// and which succeeded before the failure was known — those samples
// ARE durable on their shards, and the client must know a retry of
// the whole batch will re-ingest them.
type IngestError struct {
	// Failed maps shard ID -> that leg's error.
	Failed map[string]error
	// Acked maps shard ID -> LSN for the legs that succeeded.
	Acked map[string]uint64
}

func (e *IngestError) Error() string {
	ids := make([]string, 0, len(e.Failed))
	for id := range e.Failed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b bytes.Buffer
	fmt.Fprintf(&b, "ingest failed on %d/%d shard legs:", len(e.Failed), len(e.Failed)+len(e.Acked))
	for _, id := range ids {
		fmt.Fprintf(&b, " %s: %v;", id, e.Failed[id])
	}
	return b.String()
}

// RetryAfter returns the largest Retry-After hint among the failed
// legs, or "" when none carried one — the coordinator propagates it
// so feeders back off as far as the most loaded owner asks.
func (e *IngestError) RetryAfter() string {
	best := ""
	for _, err := range e.Failed {
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > best {
			best = se.RetryAfter // numeric seconds; lexical max is fine for single digits, callers only need *a* hint
		}
	}
	return best
}

// ingestAckJSON mirrors the shard's 202 body.
type ingestAckJSON struct {
	LSN     uint64 `json:"lsn"`
	Samples int    `json:"samples"`
}

// RouteIngest partitions samples by their replica set and forwards
// one NDJSON sub-batch to every replica of each set, concurrently,
// with the full client policy (deadline, retries, gate, breaker).
//
// Durability and failure semantics with replication factor R:
//
//   - A sub-batch is durable as soon as ONE replica acks it (its WAL
//     holds the samples). Replicas that failed the same sub-batch are
//     marked stale, the batch is queued as a hint against them
//     (replica.go), and they are excluded from reads until the health
//     loop redelivers — a partial replica failure is a success with
//     hinting, not an error.
//   - Only a sub-batch with ZERO acked replicas fails the call: the
//     error is an *IngestError naming the failed shards and the legs
//     that did ack (those samples ARE durable; a blind full retry
//     re-ingests them).
//
// With R == 1 a replica set is just the owner, so this degrades to
// the unreplicated behaviour exactly: any leg failure is an error.
func (r *Router) RouteIngest(ctx context.Context, samples []ingest.Sample) (*IngestResult, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadQuery)
	}
	R := r.cfg.Replicas
	// Partition by replica tuple. Sample order within a sub-batch
	// preserves the client's order — the sessionizer depends on
	// per-user time order, and per-user order survives a stable
	// partition by user (each user maps to exactly one tuple).
	type group struct {
		tuple   []int
		samples []ingest.Sample
	}
	byTuple := make(map[string]*group)
	for _, s := range samples {
		tuple := r.ring.ReplicaIndices(s.User, R)
		key := r.ring.SegmentID(tuple)
		g := byTuple[key]
		if g == nil {
			g = &group{tuple: tuple}
			byTuple[key] = g
		}
		g.samples = append(g.samples, s)
	}

	res := &IngestResult{Samples: len(samples), Shards: make(map[string]uint64)}
	ierr := &IngestError{Failed: make(map[string]error), Acked: res.Shards}
	hinted := make(map[string]bool)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, g := range byTuple {
		body := encodeNDJSON(g.samples)
		legErr := make([]error, len(g.tuple))
		acked := make([]bool, len(g.tuple))
		var legs sync.WaitGroup
		for li, j := range g.tuple {
			s := r.shards[j]
			legs.Add(1)
			wg.Add(1)
			go func(li int, s *shard) {
				defer legs.Done()
				defer wg.Done()
				lsn, err := r.postIngest(ctx, s, body)
				if err != nil {
					legErr[li] = err
					return
				}
				acked[li] = true
				mu.Lock()
				if lsn > res.Shards[s.id] {
					res.Shards[s.id] = lsn
				}
				mu.Unlock()
			}(li, s)
		}
		// Settle the group once all its legs are done — in a goroutine
		// so groups proceed concurrently with each other.
		wg.Add(1)
		go func(g *group, body []byte, legErr []error, acked []bool, legs *sync.WaitGroup) {
			defer wg.Done()
			legs.Wait()
			anyAck := false
			for _, ok := range acked {
				anyAck = anyAck || ok
			}
			mu.Lock()
			defer mu.Unlock()
			for li, j := range g.tuple {
				if legErr[li] == nil {
					continue
				}
				s := r.shards[j]
				if anyAck {
					// Durable on a sibling: hint the miss, stale the
					// replica, no error.
					s.noteMissed(body, r.cfg.MaxHintBytes, legErr[li])
					hinted[s.id] = true
					r.cfg.Logger.Printf("router: replica %s missed ingest batch (hinted): %v", s.id, legErr[li])
					continue
				}
				if prev, dup := ierr.Failed[s.id]; !dup || prev == nil {
					ierr.Failed[s.id] = legErr[li]
				}
			}
		}(g, body, legErr, acked, &legs)
	}
	wg.Wait()
	for id := range hinted {
		res.Hinted = append(res.Hinted, id)
	}
	sort.Strings(res.Hinted)
	if len(ierr.Failed) > 0 {
		return res, ierr
	}
	return res, nil
}

// postIngest sends one NDJSON batch to s's POST /v1/ingest with the
// full client policy (deadline, retries, gate, breaker), records the
// ack's LSN as the shard's latest and returns it. Routed sub-batches
// and redelivered hints are both sent here.
func (r *Router) postIngest(ctx context.Context, s *shard, body []byte) (uint64, error) {
	var ack ingestAckJSON
	err := r.callBrk(ctx, s,
		func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.addr+"/v1/ingest", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/x-ndjson")
			return req, nil
		},
		func(_ int, rb io.Reader) error { return decodeJSONBody(rb, &ack) })
	if err != nil {
		return 0, err
	}
	s.noteAck(ack.LSN)
	return ack.LSN, nil
}

// encodeNDJSON renders a sub-batch in the shard's POST /v1/ingest
// wire format. Floats are encoded in Go's shortest round-trip form,
// so the shard parses back the exact sample bits the router parsed.
func encodeNDJSON(samples []ingest.Sample) []byte {
	var buf bytes.Buffer
	for _, s := range samples {
		fmt.Fprintf(&buf, `{"user":%d,"x":%g,"y":%g,"t":%g}`+"\n", s.User, s.X, s.Y, s.T)
	}
	return buf.Bytes()
}
