// Command geofeed exercises the streaming ingestion path.
//
// Feed mode generates a synthetic location firehose — users dwelling,
// walking, and disappearing past the session gap — and POSTs it to a
// geoserve /v1/ingest endpoint as NDJSON batches, honouring 429
// backpressure with Retry-After:
//
//	geofeed feed -url http://localhost:8080 -users 200 -rate 5000 -duration 30s
//
// Both the single-shard geoserve /v1/ingest and the georouter
// coordinator speak the same NDJSON contract, so the same invocation
// drives a whole cluster through the router.
//
// Query mode issues random weighted multi-region top-k queries against
// /v1/topk — a shard's bare result list or the router's envelope — and
// against a router reports how many answers were partial and which
// shards were missing:
//
//	geofeed query -url http://localhost:9090 -queries 200 -k 10
//
// Inspect mode reads a write-ahead log offline and reports every
// record (LSN, kind — sample batch, upsert or remove — size, CRC
// validity) plus whether the tail is torn or corrupt — the first thing
// to look at after a crash:
//
//	geofeed inspect -wal ingest.wal [-v]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"time"

	"geofootprint/internal/ingest"
	"geofootprint/internal/retry"
	"geofootprint/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geofeed: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "feed":
		feed(os.Args[2:])
	case "query":
		query(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: geofeed feed|query|inspect [flags]")
	os.Exit(2)
}

// walker is one synthetic user's state in the generated stream.
type walker struct {
	x, y, t float64
}

func feed(args []string) {
	fs := flag.NewFlagSet("feed", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8080", "geoserve base URL")
	users := fs.Int("users", 100, "synthetic user population")
	rate := fs.Float64("rate", 2000, "target samples/second (0: as fast as possible)")
	duration := fs.Duration("duration", 10*time.Second, "how long to feed")
	batch := fs.Int("batch", 200, "samples per POST")
	seed := fs.Int64("seed", 1, "stream seed")
	fs.Parse(args)

	rng := rand.New(rand.NewSource(*seed))
	cur := make([]walker, *users)
	for i := range cur {
		cur[i] = walker{rng.Float64(), rng.Float64(), rng.Float64() * 5}
	}
	next := func() ingest.Sample {
		u := rng.Intn(*users)
		c := &cur[u]
		switch r := rng.Float64(); {
		case r < 0.03: // session break
			c.t += 120 + rng.Float64()*120
			c.x, c.y = rng.Float64(), rng.Float64()
		case r < 0.15: // relocation within the session
			c.t += 1
			c.x, c.y = rng.Float64(), rng.Float64()
		default: // dwell
			c.t += 1
			c.x += (rng.Float64() - 0.5) * 0.01
			c.y += (rng.Float64() - 0.5) * 0.01
		}
		return ingest.Sample{User: u + 1, X: c.x, Y: c.y, T: c.t}
	}

	client := &http.Client{Timeout: 10 * time.Second}
	// Retry schedule for shed batches (decorrelated jitter, shared
	// with the router's fan-out retries); seeded off the stream seed
	// so a run is reproducible end to end.
	bo := retry.New(50*time.Millisecond, 2*time.Second, rand.New(rand.NewSource(*seed+1)))
	const maxAttempts = 10
	var (
		sent, batches, retried429, retried503 int
		buf                                   bytes.Buffer
	)
	start := time.Now()
	deadline := start.Add(*duration)
	for time.Now().Before(deadline) {
		buf.Reset()
		for i := 0; i < *batch; i++ {
			s := next()
			fmt.Fprintf(&buf, `{"user":%d,"x":%g,"y":%g,"t":%g}`+"\n", s.User, s.X, s.Y, s.T)
		}
		for attempt := 0; ; attempt++ {
			var (
				shed bool
				wait time.Duration
			)
			err := post(client, *url+"/v1/ingest", "application/x-ndjson", buf.Bytes(), func(status int, h http.Header, _ io.Reader) error {
				// The body is ignored; the status code is the signal.
				switch status {
				case http.StatusAccepted:
					sent += *batch
					batches++
					bo.Reset()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// 429: backpressure; 503: draining or briefly
					// unavailable. Both are retryable sheds — but a batch
					// shed maxAttempts times in a row means the server is
					// not coming back at this load.
					if attempt+1 >= maxAttempts {
						return fmt.Errorf("shed %d times in a row (last status %d); giving up", maxAttempts, status)
					}
					if status == http.StatusTooManyRequests {
						retried429++
					} else {
						retried503++
					}
					shed, wait = true, bo.Next(h.Get("Retry-After"))
				default:
					return fmt.Errorf("status %d", status)
				}
				return nil
			})
			if err != nil {
				log.Fatalf("POST /v1/ingest: %v", err)
			}
			if !shed {
				break
			}
			time.Sleep(wait)
		}
		if *rate > 0 {
			// Pace to the target rate against the wall clock.
			ahead := time.Duration(float64(sent)/(*rate)*float64(time.Second)) - time.Since(start)
			if ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	fmt.Printf("fed %d samples in %d batches over %.1fs (%.0f samples/s); %d retries (%d backpressure, %d unavailable)\n",
		sent, batches, elapsed, float64(sent)/elapsed, retried429+retried503, retried429, retried503)
}

// post sends body to url with the given Content-Type through
// retry.Exchange, which drains and closes the response for handle.
func post(c *http.Client, url, contentType string, body []byte, handle func(status int, h http.Header, body io.Reader) error) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	return retry.Exchange(c, req, handle)
}

func inspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	path := fs.String("wal", "", "write-ahead log to read (required)")
	verbose := fs.Bool("v", false, "print every record")
	fs.Parse(args)
	if *path == "" {
		fs.Usage()
		os.Exit(2)
	}
	damaged, err := inspectWAL(os.Stdout, *path, *verbose)
	if err != nil {
		log.Fatal(err)
	}
	if damaged {
		os.Exit(1)
	}
}

// inspectWAL writes inspect's report on the log at path to w and says
// whether its tail is damaged.
func inspectWAL(w io.Writer, path string, verbose bool) (damaged bool, err error) {
	var (
		samples, upserts, removes int
		bytesTotal                int64
		firstLSN, lastLSN         uint64
	)
	n, damaged, err := wal.Replay(path, func(rec wal.Record) error {
		if firstLSN == 0 {
			firstLSN = rec.LSN
		}
		lastLSN = rec.LSN
		bytesTotal += int64(len(rec.Payload))
		r, derr := ingest.DecodeRecord(rec.Payload)
		if derr != nil {
			// CRC-valid but undecodable: a format-version mismatch.
			fmt.Fprintf(w, "record LSN %d: %v\n", rec.LSN, derr)
			return nil
		}
		var what string
		switch {
		case len(r.Samples) > 0:
			samples += len(r.Samples)
			what = fmt.Sprintf("%5d samples  t=[%g, %g]", len(r.Samples), r.Samples[0].T, r.Samples[len(r.Samples)-1].T)
		case r.Edit.Op == ingest.OpUpsert:
			upserts++
			what = fmt.Sprintf("upsert user %d, %d regions", r.Edit.User, len(r.Edit.Regions))
		default:
			removes++
			what = fmt.Sprintf("remove user %d", r.Edit.User)
		}
		if verbose {
			fmt.Fprintf(w, "LSN %-8d %7d bytes  %s\n", rec.LSN, len(rec.Payload), what)
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s: %d records (LSN %d..%d), %d samples, %d upserts, %d removes, %d payload bytes, %d file bytes\n",
		path, n, firstLSN, lastLSN, samples, upserts, removes, bytesTotal, fi.Size())
	if damaged {
		fmt.Fprintln(w, "TAIL DAMAGED: the last record is torn or corrupt; recovery applies the intact prefix and the next open truncates the tail")
		return true, nil
	}
	fmt.Fprintln(w, "tail clean: every record passes CRC")
	return false, nil
}
