package value

import (
	"bytes"
	"testing"
)

// FuzzDecodeKey holds DecodeKey to its contract on untrusted bytes (the
// persisted partition-tree files reach it row by row): it never panics,
// and a successful decode re-encodes to exactly the bytes it consumed —
// every datum has one encoding, so a corrupted byte cannot decode to a
// datum that writes back differently.
func FuzzDecodeKey(f *testing.F) {
	for _, v := range []V{
		Null(), Bool(true), Bool(false), Int(0), Int(-42), Int(1 << 40),
		Float(3.25), Float(-0.5), Str(""), Str("hello"), Str("with \x00 byte"),
	} {
		f.Add(v.EncodeKey(nil))
	}
	for _, in := range [][]byte{
		{}, {99}, {byte(KindBool)}, {byte(KindInt), 1, 2, 3}, {byte(KindFloat), 1},
		{byte(KindString), 0, 0}, Str("hello").EncodeKey(nil)[:10],
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		v, rest, err := DecodeKey(src)
		if err != nil {
			return
		}
		if len(rest) > len(src) || !bytes.Equal(rest, src[len(src)-len(rest):]) {
			t.Fatalf("DecodeKey(%x) left %x, not a suffix of its input", src, rest)
		}
		consumed := src[:len(src)-len(rest)]
		if got := v.EncodeKey(nil); !bytes.Equal(got, consumed) {
			t.Fatalf("DecodeKey(%x) = %s %s, which re-encodes to %x, not the %x it consumed", src, v.Kind(), v.SQLString(), got, consumed)
		}
	})
}
