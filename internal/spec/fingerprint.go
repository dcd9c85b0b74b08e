package spec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
)

// sampleBytes is how much of each input file the fingerprint reads.
// The engine's normal case is decided by sampling the input prefix, so
// the prefix is what a compiled plan bakes in from a file: header
// names, column count, normal-case types. Up to there the fingerprint
// is a correctness input — a plan served across a change to the spec or
// to a prefix would run the wrong pipeline. Past the prefix it is a
// performance signal: a file whose tail drifted at the same size keeps
// its key and reuses the plan. That is safe because a plan holds no
// input data — every execution re-reads every source, join build sides
// included — and rows outside the compiled normal case are classifier
// rejects that flow through the general path: slower, not wrong.
const sampleBytes = 64 << 10

// Fingerprint derives the compiled-pipeline cache key: a hash over the
// canonical spec encoding (UDF sources, globals, op chain, options,
// sink) plus, for every file-backed source in the pipeline (join build
// sides included), each file's size and first 64 KiB. Byte-identical
// resubmissions of the same spec over unchanged inputs map to the same
// key; editing a UDF, an option or the input prefix changes it.
//
// Unreadable files hash their error string instead of failing: the
// submission will surface the real error when the job runs, and a
// missing file must not collide with an empty one.
func (p *Pipeline) Fingerprint() (string, error) {
	canonical, err := p.Encode()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(canonical)
	fingerprintSources(h, p)
	return hex.EncodeToString(h.Sum(nil)), nil
}

func fingerprintSources(h io.Writer, p *Pipeline) {
	if p == nil {
		return
	}
	if p.Source.Path != "" && p.Source.Data == "" && len(p.Source.Rows) == 0 {
		for _, path := range strings.Split(p.Source.Path, ",") {
			fingerprintFile(h, strings.TrimSpace(path))
		}
	}
	for i := range p.Ops {
		fingerprintSources(h, p.Ops[i].Build)
	}
}

func fingerprintFile(h io.Writer, path string) {
	io.WriteString(h, "\x00file:")
	io.WriteString(h, path)
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(h, "\x00err:%v", err)
		return
	}
	defer f.Close()
	var size int64 = -1
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	var szBuf [8]byte
	binary.LittleEndian.PutUint64(szBuf[:], uint64(size))
	h.Write(szBuf[:])
	io.CopyN(h, f, sampleBytes)
}
