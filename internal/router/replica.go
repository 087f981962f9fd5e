// Replica bookkeeping: the router-side state that makes R > 1 safe.
//
// Replication is only as good as the router's knowledge of which
// replicas actually hold the acked writes. Three mechanisms keep that
// knowledge honest:
//
//   - Acked-seq tracking: every /v1/ingest ack advances the shard's
//     ackedSeq high-water mark. A later health probe reporting a
//     LOWER ingest_seq means the shard restarted onto an older
//     snapshot and silently lost acked writes — it is marked stale
//     and excluded from reads until its seq catches back up.
//   - Hinted handoff: when a replica's ingest leg fails while a
//     sibling acked the same sub-batch, the batch is not lost and not
//     an error — it is queued (bounded by Config.MaxHintBytes) as a
//     hint against the failed replica, which is stale until the
//     health loop redelivers the queue. Only a sub-batch with ZERO
//     acked replicas fails the ingest.
//   - Circuit breakers (internal/breaker): a shard that keeps failing
//     is skipped instantly instead of burning a timeout per query;
//     a single half-open probe per OpenFor period retests it.
//
// A stale replica still serves as a failover target of last resort?
// No — never: reading a replica that missed writes would return
// answers that silently exclude acked users, the one failure mode
// this subsystem exists to prevent. Stale replicas are skipped like
// unreachable ones, and the segment goes missing (explicit partial)
// if no in-sync replica remains.
package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"geofootprint/internal/breaker"
	"geofootprint/internal/search"
)

// ErrBreakerOpen marks a fan-out leg skipped because the shard's
// circuit breaker is open.
var ErrBreakerOpen = errors.New("circuit breaker open")

// noteAck records that this shard acknowledged LSN — its durable
// high-water mark from the router's point of view.
func (s *shard) noteAck(lsn uint64) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if lsn > s.ackedSeq {
		s.ackedSeq = lsn
	}
}

// noteProbeSeq folds a health probe's reported ingest_seq into the
// regression check: reported < acked means the shard lost durable
// writes; reported catching back up clears the flag.
func (s *shard) noteProbeSeq(reported uint64) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if reported < s.ackedSeq {
		if !s.regressed {
			s.regressed = true
			s.staleWhy = fmt.Sprintf("ingest_seq %d < acked %d (lost writes)", reported, s.ackedSeq)
		}
		return
	}
	if s.regressed {
		s.regressed = false
		s.staleWhy = ""
	}
}

// noteMissed queues a sub-batch this replica failed to ingest while a
// sibling acked it. The queue is byte-bounded: past the cap the hint
// is dropped and the shard stays stale with an overflow reason —
// redelivery can no longer self-heal it, only re-ingestion can.
func (s *shard) noteMissed(body []byte, maxBytes int, cause error) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if maxBytes < 0 || s.hintBytes+len(body) > maxBytes {
		s.staleWhy = fmt.Sprintf("missed writes beyond hint budget (last: %v)", cause)
		s.regressed = true // pins stale even with an empty queue
		return
	}
	s.hints = append(s.hints, body)
	s.hintBytes += len(body)
	if s.staleWhy == "" {
		s.staleWhy = fmt.Sprintf("missed ingest batch (%v)", cause)
	}
}

// syncState reports whether the replica is in-sync for reads and, if
// not, why.
func (s *shard) syncState() (why string, stale bool) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if s.regressed || len(s.hints) > 0 {
		return s.staleWhy, true
	}
	return "", false
}

// peekHint returns the oldest queued hint without removing it.
func (s *shard) peekHint() ([]byte, bool) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if len(s.hints) == 0 {
		return nil, false
	}
	return s.hints[0], true
}

// popHint removes the oldest hint after successful redelivery; when
// the queue drains the stale reason is cleared (unless a seq
// regression still pins it).
func (s *shard) popHint() {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if len(s.hints) == 0 {
		return
	}
	s.hintBytes -= len(s.hints[0])
	s.hints = s.hints[1:]
	if len(s.hints) == 0 && !s.regressed {
		s.staleWhy = ""
	}
}

// breakerFailure classifies a call error for the breaker: transport
// errors, timeouts, 5xx and 429 count against the shard; other 4xx
// mean the shard is healthy and the request was bad.
func breakerFailure(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) && se.Status >= 400 && se.Status < 500 &&
		se.Status != http.StatusTooManyRequests {
		return false
	}
	return true
}

// callBrk is call behind the shard's circuit breaker: an open breaker
// refuses instantly (ErrBreakerOpen), and the call's final outcome —
// after the retry loop, so one shed-and-recover does not count as a
// failure — feeds the breaker window through the token, which is what
// makes a straggling response from before a trip harmless.
func (r *Router) callBrk(ctx context.Context, s *shard, build func(ctx context.Context) (*http.Request, error), handle func(status int, body io.Reader) error) error {
	var tok *breaker.Token // Done is nil-safe: no breaker, no recording
	if s.brk != nil {
		var ok bool
		tok, ok = s.brk.Allow()
		if !ok {
			return fmt.Errorf("shard %s: %w", s.id, ErrBreakerOpen)
		}
	}
	err := r.call(ctx, s, build, handle)
	tok.Done(!breakerFailure(err))
	return err
}

// segGather accumulates the legs' answers under a duplicate guard:
// engine.MergeParts (topk.Collector underneath) does NOT deduplicate
// by user ID, so the same segments merged twice would double-count
// every user in them and silently corrupt scores. add refuses the
// second arrival for a segment (or segment-prefix) ID; the property
// test pins that the guarded merge is idempotent across replicas.
type segGather struct {
	mu      sync.Mutex
	parts   map[string][]search.Result
	dropped int
}

func newSegGather() *segGather {
	return &segGather{parts: make(map[string][]search.Result)}
}

// add records one segment's answer; it returns false (and keeps the
// first answer) when the segment was already gathered.
func (g *segGather) add(segID string, part []search.Result) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.parts[segID]; dup {
		g.dropped++
		return false
	}
	g.parts[segID] = part
	return true
}

func (g *segGather) collect() [][]search.Result {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([][]search.Result, 0, len(g.parts))
	for _, p := range g.parts {
		out = append(out, p)
	}
	return out
}

// RedeliverHints replays queued missed-ingest batches to their
// replicas, oldest first, stopping at the first failure per shard
// (order must hold — the sessionizer needs per-user time order). The
// background monitor calls it each health round; tests (and
// deployments with the monitor disabled) call it directly. It returns
// the number of batches successfully redelivered.
func (r *Router) RedeliverHints(ctx context.Context) int {
	delivered := 0
	for _, s := range r.shards {
		for {
			body, ok := s.peekHint()
			if !ok {
				break
			}
			if h := s.Health(); !h.serving() {
				break // still down; next round
			}
			if _, err := r.postIngest(ctx, s, body); err != nil {
				r.cfg.Logger.Printf("router: hint redelivery to shard %s failed: %v", s.id, err)
				break
			}
			s.popHint()
			delivered++
		}
	}
	return delivered
}
