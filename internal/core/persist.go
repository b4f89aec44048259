package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"qpiad/internal/relation"
)

// knowledgeFile is the on-disk representation of mined knowledge. The
// expensive part of offline mining is acquiring the sample through the
// autonomous source's restricted interface, not the computation: TANE and
// classifier training over a mediator-scale sample run in well under a
// second and are deterministic given the sample. The file therefore
// persists the probed sample (as typed-header CSV), the scaling statistics
// and the mining configuration; Load re-mines and reconstructs knowledge
// identical to what Save saw.
//
// Checksum guards the payload: a crash or partial copy can leave a file
// that still parses as JSON (the sample CSV is one long string — cutting
// or flipping bytes inside it often keeps the document well-formed), and a
// silently shortened sample would re-mine *different* knowledge without
// any error. Load recomputes the checksum over the payload fields and
// rejects on mismatch, so corruption is a load-time error — never wrong
// answers.
type knowledgeFile struct {
	Version   int             `json:"version"`
	Source    string          `json:"source"`
	Ratio     float64         `json:"ratio"`
	PerInc    float64         `json:"per_inc"`
	Config    KnowledgeConfig `json:"config"`
	SampleCSV string          `json:"sample_csv"`
	// Checksum is payloadChecksum over the fields above (format "fnv64a:%016x").
	Checksum string `json:"checksum"`
}

// knowledgeFileVersion guards against future format changes. Version 2
// added the payload checksum; version-1 files (no checksum) are rejected —
// they predate crash-safe persistence and cannot be verified.
const knowledgeFileVersion = 2

// payloadChecksum hashes the payload fields in a fixed order. FNV-64a is
// not cryptographic — the threat model is truncation and bit rot, not an
// adversary — and it keeps the format dependency-free.
func (d *knowledgeFile) payloadChecksum() string {
	h := fnv.New64a()
	sep := []byte{0x1f}
	put := func(s string) {
		//lint:allow errdrop hash.Hash writes cannot fail
		io.WriteString(h, s)
	}
	put(strconv.Itoa(d.Version))
	h.Write(sep)
	put(d.Source)
	h.Write(sep)
	put(strconv.FormatFloat(d.Ratio, 'g', -1, 64))
	h.Write(sep)
	put(strconv.FormatFloat(d.PerInc, 'g', -1, 64))
	h.Write(sep)
	//lint:allow errdrop KnowledgeConfig is a plain value struct; Marshal cannot fail on it
	cfg, _ := json.Marshal(d.Config)
	h.Write(cfg)
	h.Write(sep)
	put(d.SampleCSV)
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// Save writes the knowledge (sample, statistics, and mining configuration)
// to w. cfg must be the configuration the knowledge was mined with.
func (k *Knowledge) Save(w io.Writer, cfg KnowledgeConfig) error {
	var csv strings.Builder
	if err := k.Sample.WriteCSV(&csv); err != nil {
		return fmt.Errorf("core: save knowledge: %w", err)
	}
	doc := knowledgeFile{
		Version:   knowledgeFileVersion,
		Source:    k.Source,
		Ratio:     k.Ratio,
		PerInc:    k.PerInc,
		Config:    cfg,
		SampleCSV: csv.String(),
	}
	doc.Checksum = doc.payloadChecksum()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("core: save knowledge: %w", err)
	}
	return nil
}

// SaveFile is Save to a named file, written crash-safely: the document goes
// to a temporary file in the target's directory, is fsynced, and is then
// renamed over the target. A crash mid-write leaves either the old file or
// the new one — never a truncated hybrid that poisons the next load. (The
// directory entry itself is not fsynced; after a whole-machine crash the
// rename may be lost, but the visible file is still one complete version.)
func (k *Knowledge) SaveFile(path string, cfg KnowledgeConfig) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: save knowledge: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		//lint:allow errdrop the write/sync error is already being returned; cleanup errors add nothing
		f.Close()
		//lint:allow errdrop best-effort removal of the abandoned temp file
		os.Remove(tmp)
		return err
	}
	if err := k.Save(f, cfg); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("core: save knowledge: %w", err))
	}
	if err := f.Close(); err != nil {
		//lint:allow errdrop best-effort removal of the abandoned temp file
		os.Remove(tmp)
		return fmt.Errorf("core: save knowledge: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		//lint:allow errdrop best-effort removal of the abandoned temp file
		os.Remove(tmp)
		return fmt.Errorf("core: save knowledge: %w", err)
	}
	return nil
}

// LoadKnowledge reads a knowledge file and reconstructs the mined
// knowledge by re-mining the persisted sample under the persisted
// configuration. Truncated or corrupted files fail here with a clear
// error: the JSON must parse, the version must match, and the payload
// checksum must verify before any re-mining happens.
func LoadKnowledge(r io.Reader) (*Knowledge, error) {
	var doc knowledgeFile
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: load knowledge: file is truncated or not a knowledge file: %w", err)
	}
	if doc.Version != knowledgeFileVersion {
		return nil, fmt.Errorf("core: load knowledge: unsupported version %d (want %d)", doc.Version, knowledgeFileVersion)
	}
	if doc.Checksum == "" {
		return nil, fmt.Errorf("core: load knowledge: missing payload checksum (file predates crash-safe format or was stripped)")
	}
	if want := doc.payloadChecksum(); doc.Checksum != want {
		return nil, fmt.Errorf("core: load knowledge: payload checksum mismatch (file corrupt): have %s, computed %s", doc.Checksum, want)
	}
	smpl, err := relation.ReadCSV(doc.Source+"_sample", strings.NewReader(doc.SampleCSV))
	if err != nil {
		return nil, fmt.Errorf("core: load knowledge: %w", err)
	}
	return MineKnowledge(doc.Source, smpl, doc.Ratio, doc.PerInc, doc.Config)
}

// LoadKnowledgeFile is LoadKnowledge from a named file.
func LoadKnowledgeFile(path string) (*Knowledge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load knowledge: %w", err)
	}
	//lint:allow errdrop file opened read-only; Close cannot lose data
	defer f.Close()
	return LoadKnowledge(f)
}
