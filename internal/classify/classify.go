// Package classify implements a k-nearest-neighbour classifier over
// geo-footprints, one of the data-mining applications the paper's
// introduction motivates: footprint similarity (Equation 1) acts as
// the affinity measure, neighbours are retrieved with any Section 6
// search method, and the label is decided by similarity-weighted vote.
//
// Typical use: labels come from an external source for a subset of
// users (e.g. survey responses, loyalty-program segments) and the
// classifier infers them for everybody else from movement alone.
package classify

import (
	"fmt"

	"geofootprint/internal/core"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// Classifier predicts user labels from footprint similarity.
type Classifier struct {
	db     *store.FootprintDB
	idx    search.Searcher
	labels map[int]string // external user ID → label
	k      int
}

// New builds a classifier over the labelled subset of db. labels maps
// external user IDs to class labels; users of db absent from labels
// are simply never voted for. k is the neighbourhood size.
func New(db *store.FootprintDB, idx search.Searcher, labels map[int]string, k int) (*Classifier, error) {
	if k < 1 {
		return nil, fmt.Errorf("classify: k must be positive, got %d", k)
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("classify: no labelled users")
	}
	return &Classifier{db: db, idx: idx, labels: labels, k: k}, nil
}

// Prediction is a classification result: the winning label, its
// aggregate similarity-weighted vote, and the votes of all labels.
type Prediction struct {
	Label string
	Score float64
	Votes map[string]float64
	// Neighbours counts the labelled neighbours that actually
	// voted. Zero means the footprint overlapped no labelled user
	// and Label is empty.
	Neighbours int
}

// ClassifyUser predicts the label of an existing user by ID, excluding
// the user's own (possibly labelled) entry from the vote.
func (c *Classifier) ClassifyUser(id int) (Prediction, error) {
	i, ok := c.db.IndexOf(id)
	if !ok {
		return Prediction{}, fmt.Errorf("classify: unknown user ID %d", id)
	}
	return c.predict(c.db.Row(i), id), nil
}

// predict lets the k labelled neighbours of q nearest to it vote,
// leaving out the user whose external ID is skip.
func (c *Classifier) predict(q core.Footprint, skip int) Prediction {
	// Over-fetch so that k *labelled* neighbours can vote even when
	// skip and unlabelled users rank in between.
	res := c.idx.TopK(q, c.k+1+len(c.labels))
	p := Prediction{Votes: map[string]float64{}}
	for _, r := range res {
		if r.ID == skip {
			continue
		}
		lbl, ok := c.labels[r.ID]
		if !ok {
			continue
		}
		p.Votes[lbl] += r.Score
		if p.Neighbours++; p.Neighbours == c.k {
			break
		}
	}
	for lbl, v := range p.Votes {
		if v > p.Score || (v == p.Score && lbl < p.Label) {
			p.Label, p.Score = lbl, v
		}
	}
	return p
}

// Evaluate runs leave-one-out classification over the labelled users
// and returns the accuracy (fraction of users whose predicted label
// matches their true one). Users whose footprints overlap no labelled
// neighbour count as misclassified.
func (c *Classifier) Evaluate() float64 {
	if len(c.labels) == 0 {
		return 0
	}
	correct := 0
	for id, truth := range c.labels {
		p, err := c.ClassifyUser(id)
		if err == nil && p.Label == truth {
			correct++
		}
	}
	return float64(correct) / float64(len(c.labels))
}
