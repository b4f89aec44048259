package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteCSV encodes the relation as CSV. The header row carries typed column
// names in "name:kind" form so that ReadCSV can reconstruct the schema.
// Null values encode as NullToken (`\N`).
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, r.Schema.Len())
	for i := 0; i < r.Schema.Len(); i++ {
		header[i] = r.Schema.Attr(i).String()
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("relation: write csv header: %w", err)
	}
	row := make([]string, r.Schema.Len())
	for _, t := range r.tuples {
		for i, v := range t {
			// csv.Reader drops the carriage return before every newline,
			// so a value's "\r\n" is written with one carriage return more.
			row[i] = strings.ReplaceAll(v.Encode(), "\r\n", "\r\r\n")
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("relation: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a relation written by WriteCSV. Columns whose header lacks
// a ":kind" suffix default to string.
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	attrs := make([]Attribute, len(header))
	for i, h := range header {
		name, kindStr, found := strings.Cut(h, ":")
		kind := KindString
		if found {
			k, err := ParseKind(kindStr)
			if err != nil {
				return nil, fmt.Errorf("relation: column %d: %w", i, err)
			}
			kind = k
		}
		attrs[i] = Attribute{Name: strings.TrimSpace(name), Kind: kind}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	rel := New(name, schema)
	var tuples []Tuple
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv line %d: %w", line, err)
		}
		if len(rec) != schema.Len() {
			return nil, fmt.Errorf("relation: csv line %d: %d fields, want %d", line, len(rec), schema.Len())
		}
		t := make(Tuple, schema.Len())
		for i, field := range rec {
			v, err := Decode(schema.Attr(i).Kind, field)
			if err != nil {
				return nil, fmt.Errorf("relation: csv line %d column %s: %w", line, schema.Attr(i).Name, err)
			}
			t[i] = v
		}
		tuples = append(tuples, t)
	}
	if err := rel.InsertAll(tuples); err != nil {
		return nil, fmt.Errorf("relation: csv: %w", err)
	}
	return rel, nil
}

// SaveCSV writes the relation to the named file.
func (r *Relation) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("relation: save csv: %w", err)
	}
	if err := r.WriteCSV(f); err != nil {
		//lint:allow errdrop the WriteCSV error is already being returned; a second Close error adds nothing
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCSV reads a relation from the named file; the relation takes its name
// from the file's base name sans extension unless name is non-empty.
func LoadCSV(name, path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relation: load csv: %w", err)
	}
	//lint:allow errdrop file opened read-only; Close cannot lose data
	defer f.Close()
	return ReadCSV(name, f)
}
