package conform

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// The chunked on-disk trace format. A trace is a directory of segment
// files:
//
//	header.seg            streamHeader: format version + per-node core
//	                      construction parameters
//	chunk-00000001.seg    streamChunk: one window of macro-steps per node,
//	chunk-00000002.seg    with the node-local start offsets of the window
//	...                   and a quiescence mark for the cut that closed it
//	footer.seg            streamFooter: chunk count + per-node step totals,
//	                      written last — its presence seals the trace
//
// Every segment is written to a temporary file in the same directory,
// fsynced, and renamed into place, so a crash at any point leaves either a
// complete segment or none: the sealed prefix of a torn trace is always
// replayable. One writer goroutine per recorder encodes and writes the
// segments in the order they were cut, off the nodes' event loops.
// Segment payloads are gob, framed by a magic string, an explicit length,
// and a CRC so torn or foreign files are detected rather than misparsed.
//
// The recorder shared by all nodes of a run serializes every record under
// one mutex. That linearization is what makes chunk boundaries consistent
// cuts: every cross-node dependence at the recorded interface (a message
// received was recorded as sent first; a safe indication follows the
// recorded receipt at every member) passes through a real-time chain whose
// endpoints are records, so a boundary can never capture an effect without
// its cause. See DESIGN.md §6.8 for the full argument.

const (
	segMagic      = "DVSSEG1\n"
	streamVersion = 1
	headerSeg     = "header.seg"
	footerSeg     = "footer.seg"

	// Defaults for StreamOptions.
	defaultWindowSteps = 4096
	defaultWindowBytes = 4 << 20
)

func chunkSeg(seq int) string { return fmt.Sprintf("chunk-%08d.seg", seq) }

// NodeMeta carries one node's core construction parameters in the stream
// header — the same fields NodeLog records in-memory.
type NodeMeta struct {
	P        types.ProcID
	Group    types.GroupID // group this stack belongs to (0 in single-group runs)
	Initial  types.View
	InP0     bool
	Register bool
	GC       bool
	Static   bool // static-primary filter (staticcore) instead of the DVS core
}

type streamHeader struct {
	Version int
	Nodes   []NodeMeta // sorted by P
}

// chunkPart is one node's slice of a chunk: the records buffered since the
// previous cut, plus their start offsets in the node's full per-layer logs
// (so the replayer can verify the chunks are gap-free and index divergences
// globally).
type chunkPart struct {
	P        types.ProcID
	DVSStart int
	DVS      []DVSRecord
	TOStart  int
	TO       []TORecord
}

type streamChunk struct {
	Seq       int // 1-based, contiguous
	Quiescent bool
	Parts     []chunkPart // one per node, sorted by P
}

type nodeTotal struct {
	P   types.ProcID
	DVS int
	TO  int
}

type streamFooter struct {
	Chunks int
	Totals []nodeTotal // sorted by P
}

// writeSegment atomically writes one framed gob segment: encode to memory,
// write magic + length + payload + CRC to a temp file in the target
// directory, fsync, rename. A failure at any point leaves no partial file
// at path.
func writeSegment(path string, v any) (err error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("conform: encode segment %s: %w", filepath.Base(path), err)
	}
	payload := buf.Bytes()

	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".seg-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	var frame [8]byte
	if _, err = io.WriteString(f, segMagic); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(frame[:], uint64(len(payload)))
	if _, err = f.Write(frame[:]); err != nil {
		return err
	}
	if _, err = f.Write(payload); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(frame[:4], crc32.ChecksumIEEE(payload))
	if _, err = f.Write(frame[:4]); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// readSegment reads and verifies one segment into v. A missing file
// surfaces as os.ErrNotExist; any framing or checksum failure is an
// explicit corruption error.
func readSegment(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < len(segMagic)+8+4 || string(data[:len(segMagic)]) != segMagic {
		return fmt.Errorf("conform: %s: not a trace segment", filepath.Base(path))
	}
	body := data[len(segMagic):]
	n := binary.BigEndian.Uint64(body[:8])
	body = body[8:]
	if uint64(len(body)) != n+4 {
		return fmt.Errorf("conform: %s: truncated segment (%d of %d payload bytes)",
			filepath.Base(path), len(body), n+4)
	}
	payload, sum := body[:n], binary.BigEndian.Uint32(body[n:])
	if crc32.ChecksumIEEE(payload) != sum {
		return fmt.Errorf("conform: %s: segment checksum mismatch", filepath.Base(path))
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("conform: %s: decode segment: %w", filepath.Base(path), err)
	}
	return nil
}

// syncDir best-effort fsyncs a directory so a rename survives a crash; not
// every platform supports syncing directories, so errors are ignored.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// StreamOptions bound the recorder's in-memory window. A cut is taken as
// soon as either threshold is reached, so recorder memory is O(window)
// regardless of run length: the open window, at most one cut window
// waiting for the writer and the one it is writing.
type StreamOptions struct {
	// WindowSteps cuts a chunk after this many buffered macro-steps summed
	// over all nodes and both layers (default 4096).
	WindowSteps int
	// WindowBytes cuts a chunk once the buffered records are estimated to
	// exceed this size (approximate, default 4 MiB).
	WindowBytes int
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.WindowSteps <= 0 {
		o.WindowSteps = defaultWindowSteps
	}
	if o.WindowBytes <= 0 {
		o.WindowBytes = defaultWindowBytes
	}
	return o
}

// StreamRecorder spills the macro-step traces of a whole run to a chunked
// on-disk trace. One recorder is shared by every node of the run: the
// shared mutex linearizes all records, which is what makes each chunk
// boundary a consistent cut (see the format comment above). Register each
// node with Node before any observer fires; Close after every node has
// stopped to write the final quiescent cut and the sealing footer.
//
// A cut only hands its window to the recorder's writer goroutine, which
// gob-encodes and writes the segments in cut order. Encoding a window
// takes tens of milliseconds once the recovery summaries in it grow; under
// mu that would stall every node of the run for as long. A cut that finds
// the writer two windows behind waits for it, so a crash loses at most the
// open window and the two cut windows not yet on disk.
type StreamRecorder struct {
	dir  string
	opts StreamOptions

	mu      sync.Mutex
	nodes   []*StreamNode // sorted by P
	byP     map[types.ProcID]*StreamNode
	started bool // header queued and writer running; registration closed
	closed  bool
	seq     int
	steps   int // records buffered since the last cut
	bytes   int // estimated buffered payload bytes
	peak    int // high-water mark of steps (the O(window) witness)

	queue chan segment  // cut segments for the writer, in cut order
	wdone chan struct{} // closed when the writer has exited

	emu sync.Mutex // leaf lock: the writer never takes mu
	err error      // first write error, guarded by emu
}

// segment is one file for the writer: its name in the trace directory and
// the value to encode into it.
type segment struct {
	name string
	v    any
}

// StreamNode buffers one node's records into the shared recorder. Its
// ObserveDVS/ObserveTO have the same signatures as Recorder's and install
// the same way.
type StreamNode struct {
	r        *StreamRecorder
	meta     NodeMeta
	dvsStart int // global index of the first buffered DVS record
	dvs      []DVSRecord
	toStart  int
	to       []TORecord
}

// NewStreamRecorder creates the trace directory (if needed) and a recorder
// writing into it. The directory should be empty or a previous trace: stale
// chunks past the new footer would otherwise confuse a replay.
func NewStreamRecorder(dir string, opts StreamOptions) (*StreamRecorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &StreamRecorder{
		dir:  dir,
		opts: opts.withDefaults(),
		byP:  make(map[types.ProcID]*StreamNode),
	}, nil
}

// Dir returns the trace directory.
func (r *StreamRecorder) Dir() string { return r.dir }

// Node registers one node of the run, with the same core construction
// parameters NewRecorder takes. All nodes must register before the first
// record is spilled (registration defines the header, which is written once).
func (r *StreamRecorder) Node(p types.ProcID, g types.GroupID, initial types.View, inP0, register, gc, static bool) (*StreamNode, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.closed {
		return nil, fmt.Errorf("conform: stream node %s registered after the header was written", p)
	}
	if _, dup := r.byP[p]; dup {
		return nil, fmt.Errorf("conform: duplicate stream node %s", p)
	}
	sn := &StreamNode{r: r, meta: NodeMeta{
		P: p, Group: g, Initial: initial.Clone(), InP0: inP0, Register: register, GC: gc, Static: static,
	}}
	r.byP[p] = sn
	r.nodes = append(r.nodes, sn)
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].meta.P < r.nodes[j].meta.P })
	return sn, nil
}

// Cut forces a chunk boundary now. quiescent marks the cut as one where the
// caller guarantees the whole system is idle at the recorded interface (no
// messages or safe indications in flight between cores) — the stream
// replayer runs the full cross-node invariant suite at quiescent cuts, and
// only the per-node checks elsewhere. A non-quiescent Cut with nothing
// buffered is a no-op.
func (r *StreamRecorder) Cut(quiescent bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if r.steps == 0 && !quiescent {
		return
	}
	r.cutLocked(quiescent)
}

// Close writes the final cut (quiescent: every node has stopped) and the
// sealing footer, and returns the first write error encountered over the
// stream's lifetime. Close is idempotent.
func (r *StreamRecorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.writeErr()
	}
	r.closed = true
	if r.steps > 0 {
		r.cutLocked(true)
	}
	if !r.started {
		r.writeHeaderLocked()
	}
	ft := streamFooter{Chunks: r.seq}
	for _, sn := range r.nodes {
		ft.Totals = append(ft.Totals, nodeTotal{P: sn.meta.P, DVS: sn.dvsStart, TO: sn.toStart})
	}
	// The writer stops at its first error, so the footer is written only
	// after every chunk before it.
	r.enqueueLocked(footerSeg, ft)
	close(r.queue)
	<-r.wdone
	return r.writeErr()
}

// Err returns the sticky first write error (nil while healthy). The writer
// reports an error once it reaches the failing segment; records observed
// after that are dropped, and the sealed prefix on disk stays valid.
func (r *StreamRecorder) Err() error { return r.writeErr() }

func (r *StreamRecorder) writeErr() error {
	r.emu.Lock()
	defer r.emu.Unlock()
	return r.err
}

// PeakWindowSteps returns the high-water mark of buffered macro-steps — the
// witness that recorder memory stayed O(window): it can never exceed the
// steps threshold plus one in-flight record per node.
func (r *StreamRecorder) PeakWindowSteps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peak
}

func (r *StreamRecorder) writeHeaderLocked() {
	hdr := streamHeader{Version: streamVersion}
	for _, sn := range r.nodes {
		hdr.Nodes = append(hdr.Nodes, sn.meta)
	}
	r.queue = make(chan segment, 1)
	r.wdone = make(chan struct{})
	go r.writeLoop()
	r.started = true
	r.enqueueLocked(headerSeg, hdr)
}

// enqueueLocked hands one segment to the writer, waiting while a segment
// is already queued behind the one being written. A writer that stopped on
// an error takes nothing more; the segment is then dropped.
func (r *StreamRecorder) enqueueLocked(name string, v any) {
	select {
	case r.queue <- segment{name: name, v: v}:
	case <-r.wdone:
	}
}

// writeLoop writes the queued segments in order and stops at the first
// failure, so no segment lands on disk after one that is missing.
func (r *StreamRecorder) writeLoop() {
	defer close(r.wdone)
	for seg := range r.queue {
		if err := writeSegment(filepath.Join(r.dir, seg.name), seg.v); err != nil {
			r.emu.Lock()
			r.err = err
			r.emu.Unlock()
			return
		}
	}
}

func (r *StreamRecorder) cutLocked(quiescent bool) {
	if !r.started {
		r.writeHeaderLocked()
	}
	if r.writeErr() != nil {
		return
	}
	ch := streamChunk{Seq: r.seq + 1, Quiescent: quiescent}
	for _, sn := range r.nodes {
		ch.Parts = append(ch.Parts, chunkPart{
			P: sn.meta.P, DVSStart: sn.dvsStart, DVS: sn.dvs, TOStart: sn.toStart, TO: sn.to,
		})
		sn.dvsStart += len(sn.dvs)
		sn.toStart += len(sn.to)
		sn.dvs, sn.to = nil, nil
	}
	r.steps, r.bytes = 0, 0
	r.seq = ch.Seq
	r.enqueueLocked(chunkSeg(ch.Seq), ch)
}

// noteLocked accounts one buffered record and cuts when a threshold is hit.
// est is a cheap size estimate; WindowBytes is documented as approximate.
func (r *StreamRecorder) noteLocked(est int) {
	r.steps++
	r.bytes += est
	if r.steps > r.peak {
		r.peak = r.steps
	}
	if r.steps >= r.opts.WindowSteps || r.bytes >= r.opts.WindowBytes {
		r.cutLocked(false)
	}
}

// ObserveDVS records one VS-TO-DVS macro-step; install as the dvsg layer's
// observer. Deep-copies like Recorder.ObserveDVS.
func (sn *StreamNode) ObserveDVS(ev dvscore.Event, fx []dvscore.Effect) {
	rec := DVSRecord{Ev: cloneDVSEvent(ev), Fx: make([]dvscore.Effect, len(fx))}
	for i, f := range fx {
		rec.Fx[i] = cloneDVSEffect(f)
	}
	r := sn.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.writeErr() != nil {
		return
	}
	sn.dvs = append(sn.dvs, rec)
	r.noteLocked(64 + 64*len(fx))
}

// ObserveTO records one DVS-TO-TO macro-step; install as the tob layer's
// observer.
func (sn *StreamNode) ObserveTO(ev tocore.Event, fx []tocore.Effect) {
	rec := TORecord{Ev: cloneTOEvent(ev), Fx: make([]tocore.Effect, len(fx))}
	for i, f := range fx {
		rec.Fx[i] = cloneTOEffect(f)
	}
	r := sn.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.writeErr() != nil {
		return
	}
	sn.to = append(sn.to, rec)
	r.noteLocked(64 + 64*len(fx))
}
