package trace

import (
	"bytes"
	"testing"
)

// FuzzDecodeSpans feeds arbitrary JSONL through ReadSpans and DecodeSpans:
// malformed span streams must come back as errors, never panics. The seed
// corpus is a SpanWriter export of complete and failed traces with
// abandoned spans, plus any crasher under testdata/fuzz/FuzzDecodeSpans.
func FuzzDecodeSpans(f *testing.F) {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	for _, t := range buildTraces(4).Traces() {
		sw.ExportTrace(t)
	}
	if err := sw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		DecodeSpans(recs)
	})
}
