package flowkey

import "testing"

func TestParseMaskDirect(t *testing.T) {
	cases := map[string]Mask{
		"SrcIP":         MaskFields(FieldSrcIP),
		"dip/16":        MaskFields(FieldDstIP).WithPrefix(FieldDstIP, 16),
		"src+dst":       MaskFields(FieldSrcIP, FieldDstIP),
		"protocol":      MaskFields(FieldProto),
		"ALL":           MaskAll(),
		"(empty)":       {},
		"sport/4":       MaskFields(FieldSrcPort).WithPrefix(FieldSrcPort, 4),
		"dport/16":      MaskFields(FieldDstPort),
		"proto/3":       MaskFields(FieldProto).WithPrefix(FieldProto, 3),
		" SrcIP + dip ": MaskFields(FieldSrcIP, FieldDstIP),
	}
	for in, want := range cases {
		got, err := ParseMask(in)
		if err != nil {
			t.Errorf("ParseMask(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseMask(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseMaskErrorsDirect(t *testing.T) {
	for _, in := range []string{
		"SrcIP/33", "dport/17", "proto/9", "wat", "SrcIP/abc",
		"SrcIP+SrcIP", "SrcIP/-2", "+", "SrcIP++DstIP",
	} {
		if _, err := ParseMask(in); err == nil {
			t.Errorf("ParseMask(%q) succeeded", in)
		}
	}
}

func TestFieldStrings(t *testing.T) {
	want := map[Field]string{
		FieldSrcIP: "SrcIP", FieldDstIP: "DstIP",
		FieldSrcPort: "SrcPort", FieldDstPort: "DstPort", FieldProto: "Proto",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%v.String() = %q", f, f.String())
		}
	}
	if Field(99).String() == "" {
		t.Error("unknown field has empty string")
	}
}

func TestMaskStringVariants(t *testing.T) {
	cases := map[string]Mask{
		"SrcIP/24+DstIP+Proto": MaskFields(FieldDstIP, FieldProto).WithPrefix(FieldSrcIP, 24),
		"SrcPort/9":            MaskFields(FieldSrcPort).WithPrefix(FieldSrcPort, 9),
	}
	for want, m := range cases {
		if got := m.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestMaskPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"unknown field":  func() { MaskFields(Field(42)) },
		"prefix range":   func() { MaskAll().WithPrefix(FieldSrcIP, 40) },
		"unknown prefix": func() { MaskAll().WithPrefix(Field(9), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMaskApplyPortAndProtoBits(t *testing.T) {
	k := FiveTuple{SrcPort: 0xFFFF, DstPort: 0xFFFF, Proto: 0xFF}
	m := Mask{}
	m.Bits[FieldSrcPort] = 16
	m.Bits[FieldDstPort] = 1
	m.Bits[FieldProto] = 8
	got := m.Apply(k)
	if got.SrcPort != 0xFFFF || got.DstPort != 0x8000 || got.Proto != 0xFF {
		t.Fatalf("Apply = %+v", got)
	}
}

// FuzzParseMask hits the mask grammar with arbitrary strings.
func FuzzParseMask(f *testing.F) {
	for _, s := range []string{"SrcIP", "SrcIP/24+DstIP", "5-tuple", "", "a+b", "SrcIP/99"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMask(s)
		if err != nil {
			return
		}
		// Accepted masks must round-trip through their string form.
		back, err := ParseMask(m.String())
		if err != nil {
			t.Fatalf("mask %v string %q does not re-parse: %v", m, m.String(), err)
		}
		if back != m {
			t.Fatalf("round trip changed mask: %v -> %v", m, back)
		}
	})
}
