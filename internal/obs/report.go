package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteReport writes v, a schema-tagged report, as indented JSON
// followed by a newline. It is the one on-disk form of every tmsim-*/v1
// report, so equal reports encode to byte-identical files.
func WriteReport(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ReadReport decodes one report written by WriteReport into v, after
// checking that its top-level "schema" tag is schema. A document with
// another tag, or none, is an error and v is left untouched.
func ReadReport(r io.Reader, schema string, v any) error {
	var raw json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return fmt.Errorf("obs: reading %s report: %w", schema, err)
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return fmt.Errorf("obs: reading %s report: %w", schema, err)
	}
	if head.Schema != schema {
		return fmt.Errorf("obs: report schema %q, want %q", head.Schema, schema)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("obs: decoding %s report: %w", schema, err)
	}
	return nil
}
