package main

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// protocol buffers in the profile.proto schema), enough to attribute
// samples to layers without any dependency outside the standard library.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one CPU profile sample: its call stack as function names,
// leaf first, its CPU time in nanoseconds, and its string labels.
type profSample struct {
	stack  []string
	cpuNS  int64
	labels map[string]string
}

type pbReader struct {
	b []byte
	i int
}

var errTruncated = errors.New("pprof: truncated protobuf")

func (p *pbReader) done() bool { return p.i >= len(p.b) }

func (p *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if p.i >= len(p.b) {
			return 0, errTruncated
		}
		c := p.b[p.i]
		p.i++
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

func (p *pbReader) key() (field int, wire int, err error) {
	k, err := p.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(k >> 3), int(k & 7), nil
}

func (p *pbReader) lenDelim() ([]byte, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)-p.i) {
		return nil, errTruncated
	}
	b := p.b[p.i : p.i+int(n)]
	p.i += int(n)
	return b, nil
}

func (p *pbReader) skip(wire int) error {
	switch wire {
	case 0:
		_, err := p.varint()
		return err
	case 1:
		p.i += 8
	case 2:
		_, err := p.lenDelim()
		return err
	case 5:
		p.i += 4
	default:
		return fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	if p.i > len(p.b) {
		return errTruncated
	}
	return nil
}

// uints reads a repeated integer field in either packed or plain form.
func (p *pbReader) uints(wire int, into []uint64) ([]uint64, error) {
	if wire == 0 {
		v, err := p.varint()
		return append(into, v), err
	}
	b, err := p.lenDelim()
	if err != nil {
		return into, err
	}
	q := pbReader{b: b}
	for !q.done() {
		v, err := q.varint()
		if err != nil {
			return into, err
		}
		into = append(into, v)
	}
	return into, nil
}

type rawSample struct {
	locs   []uint64
	values []uint64
	labels [][2]uint64 // (key, str) string-table indices
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	p := pbReader{b: raw}
	for !p.done() {
		field, wire, err := p.key()
		if err != nil {
			return nil, err
		}
		if wire != 2 || (field != 2 && field != 4 && field != 5 && field != 6) {
			if err := p.skip(wire); err != nil {
				return nil, err
			}
			continue
		}
		msg, err := p.lenDelim()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2:
			s, err := parseSample(msg)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4:
			id, fns, err := parseLocation(msg)
			if err != nil {
				return nil, err
			}
			locFns[id] = fns
		case 5:
			id, name, err := parseFunction(msg)
			if err != nil {
				return nil, err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		if len(s.values) > 1 {
			ps.cpuNS = int64(s.values[1])
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ps.stack = append(ps.stack, str(fnName[fn]))
			}
		}
		for _, l := range s.labels {
			ps.labels[str(l[0])] = str(l[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

func parseSample(b []byte) (rawSample, error) {
	var s rawSample
	p := pbReader{b: b}
	for !p.done() {
		field, wire, err := p.key()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			s.locs, err = p.uints(wire, s.locs)
		case 2:
			s.values, err = p.uints(wire, s.values)
		case 3:
			var lb []byte
			if lb, err = p.lenDelim(); err == nil {
				var kv [2]uint64
				q := pbReader{b: lb}
				for !q.done() && err == nil {
					var f, w int
					if f, w, err = q.key(); err != nil {
						break
					}
					switch f {
					case 1, 2:
						kv[f-1], err = q.varint()
					default:
						err = q.skip(w)
					}
				}
				s.labels = append(s.labels, kv)
			}
		default:
			err = p.skip(wire)
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

func parseLocation(b []byte) (id uint64, fns []uint64, err error) {
	p := pbReader{b: b}
	for !p.done() {
		field, wire, err := p.key()
		if err != nil {
			return 0, nil, err
		}
		switch {
		case field == 1 && wire == 0:
			id, err = p.varint()
		case field == 4 && wire == 2:
			var lb []byte
			if lb, err = p.lenDelim(); err == nil {
				q := pbReader{b: lb}
				for !q.done() && err == nil {
					var f, w int
					if f, w, err = q.key(); err != nil {
						break
					}
					if f == 1 && w == 0 {
						var fn uint64
						if fn, err = q.varint(); err == nil {
							fns = append(fns, fn)
						}
					} else {
						err = q.skip(w)
					}
				}
			}
		default:
			err = p.skip(wire)
		}
		if err != nil {
			return 0, nil, err
		}
	}
	return id, fns, nil
}

func parseFunction(b []byte) (id, name uint64, err error) {
	p := pbReader{b: b}
	for !p.done() {
		field, wire, err := p.key()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case field == 1 && wire == 0:
			id, err = p.varint()
		case field == 2 && wire == 0:
			name, err = p.varint()
		default:
			err = p.skip(wire)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return id, name, nil
}

// ledgerLayers are the layers the what-if campaign ledger attributes, in
// report order; "other" takes what none of them claims.
var ledgerLayers = []string{"abr", "player", "abduction", "replay", "store", "other"}

// hasFrame reports whether stack holds fn itself or one of its closures.
func hasFrame(stack []string, fns ...string) bool {
	for _, name := range stack {
		for _, fn := range fns {
			if name == fn || strings.HasPrefix(name, fn+".") {
				return true
			}
		}
	}
	return false
}

func hasPrefix(stack []string, prefixes ...string) bool {
	for _, name := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
	}
	return false
}

// classify attributes a worker's CPU sample to the ledger layer the
// benchmark's spans would charge it to: ABR decisions wherever they run,
// then the replay stage (counterfactual and oracle replays minus their ABR
// calls), abduction, the Setting-A simulation, and the store append.
func classify(stack []string) string {
	switch {
	case hasPrefix(stack, "veritas/internal/abr.", "main.(*timedABR)."):
		return "abr"
	case hasFrame(stack, "veritas/internal/abduction.(*Abduction).Counterfactual", "veritas/internal/abduction.Replay"):
		return "replay"
	case hasFrame(stack, "veritas/internal/abduction.Abduct"):
		return "abduction"
	case hasFrame(stack, "veritas/internal/player.Run"):
		return "player"
	case hasPrefix(stack, "veritas/internal/store.", "main.(*timedSink)."):
		return "store"
	}
	return "other"
}

// profileShares returns each ledger layer's share of the CPU time of the
// samples carrying label key=value.
func profileShares(samples []profSample, key, value string) (map[string]float64, int64) {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.labels[key] != value {
			continue
		}
		byLayer[classify(s.stack)] += s.cpuNS
		total += s.cpuNS
	}
	out := map[string]float64{}
	for _, l := range ledgerLayers {
		out[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return out, total
}
