package report

import (
	"bytes"
	"testing"

	"cocosketch/internal/flowkey"
)

// TestDeprecatedShimsWrapTheOneCodec pins the pre-v3 names to the one
// codec: Full is shrink 1 with Seal the identity, Compressed is New,
// the Encoder writes Codec.Encode's bytes and the Decoder rebuilds
// what Decode rebuilds.
func TestDeprecatedShimsWrapTheOneCodec(t *testing.T) {
	fat := epochSketch(t, testCfg, 0, 5000, 11)
	full := Full[flowkey.FiveTuple](flowkey.FiveTupleFromBytes)
	compressed, err := Compressed[flowkey.FiveTuple](testCfg, 8, flowkey.FiveTupleFromBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		c      Codec[flowkey.FiveTuple]
		shrink int
	}{{"full", full, 1}, {"compressed", compressed, 8}} {
		stage, err := tc.c.Seal(fat)
		if err != nil {
			t.Fatal(err)
		}
		if tc.shrink == 1 && stage != fat {
			t.Errorf("%s: Seal is not the identity", tc.name)
		}
		blob, err := tc.c.NewEncoder().Encode(3, stage)
		if err != nil {
			t.Fatal(err)
		}
		if want := roundTrip(t, 3, stage, tc.shrink); !bytes.Equal(blob, want) {
			t.Errorf("%s: Encoder bytes differ from Encode at shrink %d", tc.name, tc.shrink)
		}
		back, err := tc.c.NewDecoder().Decode(1, 3, blob)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(stage) {
			t.Errorf("%s: Decoder did not rebuild the stage", tc.name)
		}
	}
	if _, err := codec(t, testCfg, 1).NewDecoder().Decode(1, 0, nil); err == nil {
		t.Error("the Decoder of a codec without a key decoder decoded")
	}
	if _, err := Compressed[flowkey.FiveTuple](testCfg, 3, flowkey.FiveTupleFromBytes); err == nil {
		t.Error("Compressed accepted shrink 3")
	}
}
