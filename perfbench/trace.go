package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// tracer is the traced mode: spans around the benchmark's calls into the
// program, kept in memory and written out at the end, plus one CPU
// profile per phase whose samples are grouped by package into per-layer
// self times. A nil *tracer is the untraced mode; every method is then
// a no-op, so timed runs pay one nil check per call.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	phase   string
	prof    bytes.Buffer
	rt0     runtimeCounters
	cpu     map[string]map[string]float64 // phase -> layer -> CPU seconds
	runtime map[string]runtimeCounters    // phase -> GC CPU and bytes allocated
	err     error
}

// span is one call the benchmark makes into a layer; name is
// "<layer>.<Function>". Every such call is made from the benchmark's own
// code, so spans have no parent.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		cpu:     make(map[string]map[string]float64),
		runtime: make(map[string]runtimeCounters),
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(h int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// durations returns the length in seconds of every closed span with the
// given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// setPhase ends the current phase's CPU profile, folds it into the
// per-layer totals, and starts profiling the next phase ("" stops).
func (t *tracer) setPhase(name string) {
	if t == nil {
		return
	}
	if t.phase != "" {
		pprof.StopCPUProfile()
		layers, err := layerSeconds(t.prof.Bytes())
		if err != nil && t.err == nil {
			t.err = err
		}
		if t.cpu[t.phase] == nil {
			t.cpu[t.phase] = make(map[string]float64)
		}
		for l, s := range layers {
			t.cpu[t.phase][l] += s
		}
		d := readRuntime().sub(t.rt0)
		r := t.runtime[t.phase]
		r.gcCPU += d.gcCPU
		r.allocBytes += d.allocBytes
		t.runtime[t.phase] = r
	}
	t.phase = name
	t.prof.Reset()
	if name == "" {
		return
	}
	t.rt0 = readRuntime()
	if err := pprof.StartCPUProfile(&t.prof); err != nil && t.err == nil {
		t.err = err
	}
}

// self returns the CPU seconds the layer spent in the phase.
func (t *tracer) self(phase, layer string) float64 { return t.cpu[phase][layer] }

// writeSpans writes every span as one JSON line to file.
func (t *tracer) writeSpans(file string) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a profiled function to the layer it belongs to: the last
// element of a hypercube/internal package path, "net" for the socket and
// syscall layers, "bench" for this program, or "" for any other library
// code, whose time is charged to the nearest caller that has a layer.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "hypercube/internal/"):
		return path.Base(pkg)
	case pkg == "main":
		return "bench"
	case pkg == "net", pkg == "syscall", pkg == "internal/poll",
		strings.HasPrefix(fn, "runtime.netpoll"), strings.HasPrefix(fn, "internal/runtime/syscall"):
		return "net"
	}
	return ""
}

// layerSeconds decodes a gzipped pprof CPU profile and sums each sample's
// CPU time into the layer of its innermost frame that has one. Samples
// with no such frame (GC workers, the scheduler) go to "runtime".
func layerSeconds(gz []byte) (map[string]float64, error) {
	if len(gz) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]byte
		valueSlot = 1 // CPU profiles carry [samples/count, cpu/nanoseconds]
	)
	err = fields(raw, func(tag int, v uint64, b []byte) error {
		switch tag {
		case 2:
			samples = append(samples, b)
		case 4:
			var lid uint64
			var fns []uint64
			if err := fields(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					lid = v
				case 4:
					return fields(b, func(tag int, v uint64, _ []byte) error {
						if tag == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[lid] = fns
		case 5:
			var fid uint64
			var name int64
			if err := fields(b, func(tag int, v uint64, _ []byte) error {
				switch tag {
				case 1:
					fid = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[fid] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, sb := range samples {
		var locs []uint64
		var vals []int64
		if err := fields(sb, func(tag int, v uint64, b []byte) error {
			switch tag {
			case 1:
				if b != nil {
					return packed(b, func(x uint64) { locs = append(locs, x) })
				}
				locs = append(locs, v)
			case 2:
				if b != nil {
					return packed(b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				vals = append(vals, int64(v))
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if len(vals) <= valueSlot {
			continue
		}
		layer := "runtime"
	walk:
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				idx := funcName[f]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if got := layerOf(strs[idx]); got != "" {
					layer = got
					break walk
				}
			}
		}
		out[layer] += float64(vals[valueSlot]) / 1e9
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling fn with each field's tag and
// either its varint value (b == nil) or its length-delimited bytes.
func fields(msg []byte, fn func(tag int, v uint64, b []byte) error) error {
	for i := 0; i < len(msg); {
		key, n := binary.Uvarint(msg[i:])
		if n <= 0 {
			return errProto
		}
		i += n
		tag, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg[i:])
			if n <= 0 {
				return errProto
			}
			i += n
			if err := fn(tag, v, nil); err != nil {
				return err
			}
		case 1:
			i += 8
		case 2:
			l, n := binary.Uvarint(msg[i:])
			if n <= 0 || i+n+int(l) > len(msg) {
				return errProto
			}
			i += n
			if err := fn(tag, 0, msg[i:i+int(l)]); err != nil {
				return err
			}
			i += int(l)
		case 5:
			i += 4
		default:
			return errProto
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte, fn func(uint64)) error {
	for i := 0; i < len(b); {
		v, n := binary.Uvarint(b[i:])
		if n <= 0 {
			return errProto
		}
		fn(v)
		i += n
	}
	return nil
}
