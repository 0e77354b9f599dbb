package main

// Seeded dataset payloads. Every dataset reaches the server exactly as a
// user would send it — CSV or JSON bytes — and the reference answers parse
// the same bytes with store.Parse, so server and reference see identical
// floats.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/pdb"
	"repro/internal/store"
)

// payload is one generated dataset file.
type payload struct {
	name string // dataset name on the server
	kind string // store kind: ind|xrel|chain
	data []byte
}

// parse decodes the payload the way the server's store import does.
func (p payload) parse() (*store.Dataset, error) {
	ds, err := store.Parse(p.kind, bytes.NewReader(p.data))
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", p.name, err)
	}
	return ds, nil
}

func formatFloat(b *bytes.Buffer, f float64) {
	b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
}

// independentCSV is an iceberg-sighting-like independent relation of n
// tuples (score,probability rows).
func independentCSV(name string, n int, seed int64) payload {
	d := datagen.IIPLike(n, seed)
	var b bytes.Buffer
	b.WriteString("score,probability\n")
	for _, t := range d.Tuples() {
		formatFloat(&b, t.Score)
		b.WriteByte(',')
		formatFloat(&b, t.Prob)
		b.WriteByte('\n')
	}
	return payload{name: name, kind: store.KindIndependent, data: b.Bytes()}
}

// xrelationCSV is a Syn-XOR x-relation of n leaves (score,probability,group
// rows; leaves of one group are mutually exclusive).
func xrelationCSV(name string, n int, seed int64) (payload, error) {
	t, err := datagen.SynXOR(n, seed)
	if err != nil {
		return payload{}, fmt.Errorf("generating %s: %w", name, err)
	}
	var b bytes.Buffer
	for i := 0; i < t.Len(); i++ {
		leaf := t.Leaf(pdb.TupleID(i))
		formatFloat(&b, leaf.Score)
		b.WriteByte(',')
		formatFloat(&b, leaf.Prob)
		b.WriteByte(',')
		b.WriteString(t.LeafKey(pdb.TupleID(i)))
		b.WriteByte('\n')
	}
	return payload{name: name, kind: store.KindXRelation, data: b.Bytes()}, nil
}

// chainJSON is a calibrated Markov chain of n tuple-presence variables.
func chainJSON(name string, n int, seed int64) (payload, error) {
	c := datagen.MarkovChainLike(n, seed)
	spec := struct {
		Scores []float64       `json:"scores"`
		Pairs  [][2][2]float64 `json:"pairs"`
	}{Scores: make([]float64, c.Len()), Pairs: make([][2][2]float64, c.Len()-1)}
	for i := range spec.Scores {
		spec.Scores[i] = c.Score(i)
	}
	for j := range spec.Pairs {
		spec.Pairs[j] = c.PairJoint(j)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return payload{}, fmt.Errorf("encoding %s: %w", name, err)
	}
	return payload{name: name, kind: store.KindChain, data: data}, nil
}
