package main

import (
	"fmt"
	"os"
	"path/filepath"

	"geofootprint/internal/core"
	"geofootprint/internal/hashring"
	"geofootprint/internal/ingest"
	"geofootprint/internal/store"
	"geofootprint/internal/synth"
)

// The corpus every workload serves: Part A at scale 0.05 (13 900 users,
// about 242 K regions) under the paper's extraction parameters. It does
// not depend on -seed — the seed drives only the generated requests —
// so it is built once per checkout and kept under .bench_build/.
const (
	corpusPart  = "A"
	corpusScale = 0.05
	smokeUsers  = 300

	clusterShards   = 4
	clusterReplicas = 2
)

// extractCfg is the paper's extraction configuration, ε=0.02, τ=30.
var extractCfg = ingest.DefaultExtract()

// corpus is the shared set-up: the snapshot file the servers load, the
// same database in this process (the LinearScan oracle and the layer
// replays run against it), and the per-shard files of cluster_r2.
type corpus struct {
	path   string
	db     *store.FootprintDB
	shards []string // shard-i.db, placed by hashring.ReplicaIndices(id, 2)
	ring   *hashring.Ring
}

func shardID(i int) string { return fmt.Sprintf("shard-%d", i) }

// shardMap returns the cluster topology. Placement depends only on the
// shard IDs, so the corpus is split against placeholder addresses and
// the live map is written once the ports are known.
func shardMap(addrs []string) *hashring.Map {
	m := &hashring.Map{Version: hashring.MapVersion}
	for i := 0; i < clusterShards; i++ {
		addr := "http://placeholder-" + shardID(i)
		if addrs != nil {
			addr = addrs[i]
		}
		m.Shards = append(m.Shards, hashring.Shard{ID: shardID(i), Addr: addr})
	}
	return m
}

// buildFootprints runs the offline pipeline of the paper (Algorithm 1
// extraction, Algorithm 2 norms) plus the sketch layer over a
// synthetic dataset.
func buildFootprints(cfg synth.Config) (*store.FootprintDB, error) {
	ds, _, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	db, err := store.Build(ds, extractCfg, core.UnitWeight, 0)
	if err != nil {
		return nil, err
	}
	db.EnableSketches(0, 0)
	return db, nil
}

// loadCorpus returns the corpus under dir, building and saving it (and
// its shard split) when the files are not there yet.
func loadCorpus(dir string, smoke bool) (*corpus, error) {
	cfg, err := synth.PartConfig(corpusPart, corpusScale)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("part%s-%g", corpusPart, corpusScale)
	if smoke {
		cfg = synth.NewConfig("smoke", smokeUsers, 1)
		name = "smoke"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &corpus{path: filepath.Join(dir, name+".db")}
	for i := 0; i < clusterShards; i++ {
		c.shards = append(c.shards, filepath.Join(dir, fmt.Sprintf("%s-%s.db", name, shardID(i))))
	}
	if c.ring, err = hashring.NewRing(shardMap(nil)); err != nil {
		return nil, err
	}
	if !allExist(append([]string{c.path}, c.shards...)) {
		db, err := buildFootprints(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.saveShards(db); err != nil {
			return nil, err
		}
		// The corpus file goes last: its presence marks the set complete.
		if err := db.Save(c.path); err != nil {
			return nil, err
		}
	}
	if c.db, err = store.Load(c.path); err != nil {
		return nil, err
	}
	return c, nil
}

func allExist(paths []string) bool {
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			return false
		}
	}
	return true
}

// saveShards writes each shard's slice of the corpus: a user lives on
// the clusterReplicas consecutive ring shards of its replica tuple.
func (c *corpus) saveShards(db *store.FootprintDB) error {
	ids := make([][]int, clusterShards)
	fps := make([][]core.Footprint, clusterShards)
	for u, id := range db.IDs {
		for _, s := range c.ring.ReplicaIndices(id, clusterReplicas) {
			ids[s] = append(ids[s], id)
			fps[s] = append(fps[s], db.Footprints[u])
		}
	}
	for s, path := range c.shards {
		sub, err := store.FromFootprints(shardID(s), ids[s], fps[s])
		if err != nil {
			return err
		}
		sub.EnableSketches(0, 0)
		if err := sub.Save(path); err != nil {
			return err
		}
	}
	return nil
}
