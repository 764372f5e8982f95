package main

import (
	"sync"
	"time"

	"github.com/haten2/haten2/internal/mr"
)

// Data-plane operations the probe counts.
const (
	opShipPart = iota
	opFetchPart
	opShipFile
	opFetchFile
	numOps
)

var opNames = [numOps]string{"ship_part", "fetch_part", "ship_file", "fetch_file"}

// opStats counts one data-plane operation.
type opStats struct {
	calls, bytes, errs int64
	dur                time.Duration
}

// probe is an mr.Backend decorator that counts calls, bytes, errors and
// time per method of the backend it wraps. Name and InProcess pass
// through unchanged, so the engine takes the same paths as with the
// bare backend. Methods are called from concurrent map and reduce
// tasks; one mutex guards the counters.
type probe struct {
	inner mr.Backend

	mu      sync.Mutex
	ops     [numOps]opStats
	release time.Duration
	shipped map[string]bool // files mirrored
	fetched map[string]bool // mirrored files read back at least once
}

func newProbe(inner mr.Backend) *probe {
	return &probe{inner: inner, shipped: map[string]bool{}, fetched: map[string]bool{}}
}

func (p *probe) record(op int, n int, d time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &p.ops[op]
	s.calls++
	s.bytes += int64(n)
	s.dur += d
	if err != nil {
		s.errs++
	}
}

func (p *probe) Name() string    { return p.inner.Name() }
func (p *probe) InProcess() bool { return p.inner.InProcess() }

func (p *probe) ShipPartition(k mr.PartKey, data []byte) error {
	n := len(data) // the backend owns data after the call
	t0 := time.Now()
	err := p.inner.ShipPartition(k, data)
	p.record(opShipPart, n, time.Since(t0), err)
	return err
}

func (p *probe) FetchPartition(k mr.PartKey) ([]byte, error) {
	t0 := time.Now()
	data, err := p.inner.FetchPartition(k)
	p.record(opFetchPart, len(data), time.Since(t0), err)
	return data, err
}

func (p *probe) ReleaseJob(job string, seq int64) error {
	t0 := time.Now()
	err := p.inner.ReleaseJob(job, seq)
	p.mu.Lock()
	p.release += time.Since(t0)
	p.mu.Unlock()
	return err
}

func (p *probe) ShipFile(name string, data []byte) error {
	n := len(data)
	t0 := time.Now()
	err := p.inner.ShipFile(name, data)
	p.record(opShipFile, n, time.Since(t0), err)
	if err == nil {
		p.mu.Lock()
		p.shipped[name] = true
		p.mu.Unlock()
	}
	return err
}

// FetchFile errors are the engine's fallbacks: it reads the file in
// process instead.
func (p *probe) FetchFile(name string) ([]byte, error) {
	t0 := time.Now()
	data, err := p.inner.FetchFile(name)
	p.record(opFetchFile, len(data), time.Since(t0), err)
	if err == nil {
		p.mu.Lock()
		p.fetched[name] = true
		p.mu.Unlock()
	}
	return data, err
}

func (p *probe) DropFile(name string) error { return p.inner.DropFile(name) }

// Close does not close the wrapped backend: the benchmark owns it.
func (p *probe) Close() error { return nil }

// report sets the backend.* metrics. shuffleMB is the engine's charged
// shuffle volume over the same jobs, the base of
// backend.bytes_per_charged_byte. A nil probe (no backend) reports
// zeros.
func (p *probe) report(t *tally, shuffleMB float64) {
	if p == nil {
		p = newProbe(nil)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for op, s := range p.ops {
		pre := "backend." + opNames[op]
		t.set(pre+"_calls", float64(s.calls))
		t.set(pre+"_mb", float64(s.bytes)/1e6)
		t.set(pre+"_s", s.dur.Seconds())
	}
	t.set("backend.fetch_file_fallbacks", float64(p.ops[opFetchFile].errs))
	useful := 0.0
	if len(p.shipped) > 0 {
		n := 0
		for name := range p.shipped {
			if p.fetched[name] {
				n++
			}
		}
		useful = float64(n) / float64(len(p.shipped))
	}
	t.set("backend.fetch_file_useful_frac", useful)
	t.set("backend.release_s", p.release.Seconds())
	ratio := 0.0
	if shuffleMB > 0 {
		ratio = float64(p.ops[opShipPart].bytes) / 1e6 / shuffleMB
	}
	t.set("backend.bytes_per_charged_byte", ratio)
}
