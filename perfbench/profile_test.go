package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
)

// pbuf is a minimal protobuf encoder for building synthetic profiles.
type pbuf struct{ b []byte }

func (p *pbuf) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wire)) }

func (p *pbuf) uint(field int, x uint64) {
	p.key(field, 0)
	p.b = binary.AppendUvarint(p.b, x)
}

func (p *pbuf) bytes(field int, b []byte) {
	p.key(field, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(field int, xs []uint64) {
	var q pbuf
	for _, x := range xs {
		q.b = binary.AppendUvarint(q.b, x)
	}
	p.bytes(field, q.b)
}

// syntheticProfile encodes a gzipped CPU profile. stacks list function
// names innermost first; each function becomes its own location except
// that the first two frames of the first stack share one location, as an
// inlined call does. Odd samples use the unpacked encoding.
func syntheticProfile(t *testing.T, stacks [][]string, values []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pbuf
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var q pbuf
		q.uint(1, strIdx(vt[0]))
		q.uint(2, strIdx(vt[1]))
		p.bytes(1, q.b)
	}
	funcs := map[string]uint64{}
	var locs [][]uint64 // location id -> function ids, innermost first
	fn := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		var q pbuf
		q.uint(1, id)
		q.uint(2, strIdx(name))
		p.bytes(5, q.b)
		return id
	}
	for si, stack := range stacks {
		var ids []uint64
		for i := 0; i < len(stack); i++ {
			lines := []uint64{fn(stack[i])}
			if si == 0 && i == 0 && len(stack) > 1 {
				i++
				lines = append(lines, fn(stack[i]))
			}
			locs = append(locs, lines)
			ids = append(ids, uint64(len(locs)))
		}
		var q pbuf
		if si%2 == 0 {
			q.packed(1, ids)
			q.packed(2, []uint64{1, uint64(values[si])})
		} else {
			for _, id := range ids {
				q.uint(1, id)
			}
			q.uint(2, 1)
			q.uint(2, uint64(values[si]))
		}
		p.bytes(2, q.b)
	}
	for i, lines := range locs {
		var q pbuf
		q.uint(1, uint64(i+1))
		for _, f := range lines {
			var l pbuf
			l.uint(1, f)
			l.uint(2, 42)
			q.bytes(4, l.b)
		}
		p.bytes(4, q.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.uint(12, 10000000) // period, a field the parser skips
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// Runtime work is charged to the innermost owning frame.
		{"runtime.mallocgc", "runtime.newobject", "sdnbuffer/internal/flowtable.(*Table).Insert",
			"sdnbuffer/internal/switchd.(*Datapath).HandleFlowMod", "main.run"},
		// A benchmark callback called from a layer belongs to the benchmark.
		{"runtime.memequal", "main.(*generator).onEgress", "sdnbuffer/internal/switchd.(*Agent).control"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.futex", "runtime.schedule", "runtime.mcall"},
		// Unmeasured layers are skipped over; subpackages fold into their layer.
		{"sdnbuffer/internal/tablemgmt.(*Tracker).Observe", "sdnbuffer/internal/topo.(*PathForwarder).HandlePacketIn"},
		{"sdnbuffer/internal/netem/tcpchaos.(*Proxy).pump"},
		{"runtime.bgsweep"},
		{"sdnbuffer/internal/flowtable.(*Table).NextExpiry", "sdnbuffer/internal/switchd.(*Agent).rearmTick"},
	}
	values := []int64{100, 7, 30, 11, 5, 3, 2, 40}
	p, err := parseProfile(syntheticProfile(t, stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(p.samples), len(stacks))
	}
	for i, s := range p.samples {
		if len(s.stack) != len(stacks[i]) || s.stack[0] != stacks[i][0] {
			t.Errorf("sample %d stack %v, want %v", i, s.stack, stacks[i])
		}
	}
	idx, err := p.valueIndex("cpu")
	if err != nil {
		t.Fatal(err)
	}
	got := fold(p, idx)
	want := map[string]int64{
		"flowtable": 140,
		bucketBench: 7,
		bucketGC:    32,
		bucketOther: 11,
		"topo":      5,
		"netem":     3,
	}
	if len(got) != len(want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
	for b, v := range want {
		if got[b] != v {
			t.Errorf("bucket %s = %d, want %d (fold %v)", b, got[b], v, got)
		}
	}
	if _, err := p.valueIndex("alloc_space"); err == nil {
		t.Error("valueIndex found a sample type the profile lacks")
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parsed a non-gzip profile")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write([]byte{0x12, 0xff}) // field 2, length past the end
	_ = zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Error("parsed a truncated message")
	}
}

func TestParseRuntimeAllocProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := p.valueIndex("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range fold(p, idx) {
		total += v
	}
	if total <= 0 {
		t.Errorf("runtime allocation profile folded to %d bytes", total)
	}
}
