package hashring

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeMap feeds arbitrary bytes to DecodeMap, the parser of the
// shard-map file. It returns an error, or a map that NewRing builds
// within MaxRingPoints and that EncodeMap round-trips: the re-decoded
// map is the same map.
//
// The seeds are committed under testdata/fuzz/FuzzDecodeMap: valid
// maps (default and explicit vnodes, the bound exactly), and rejected
// ones — over the bound, unknown field, duplicate ID, wrong version,
// truncated, not JSON.
func FuzzDecodeMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMap(bytes.NewReader(data))
		if err != nil {
			return
		}
		r, err := NewRing(m)
		if err != nil {
			t.Fatalf("DecodeMap accepted a map NewRing rejects: %v", err)
		}
		if len(r.points) > MaxRingPoints {
			t.Fatalf("a ring of %d points, above MaxRingPoints", len(r.points))
		}
		var buf bytes.Buffer
		if err := EncodeMap(&buf, m); err != nil {
			t.Fatalf("EncodeMap rejects a decoded map: %v", err)
		}
		back, err := DecodeMap(&buf)
		if err != nil {
			t.Fatalf("the encoded map does not decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the map: %+v, then %+v", m, back)
		}
	})
}
