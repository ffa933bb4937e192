package btor2

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"hhoudini/internal/circuit"
)

const counterModel = `
; two-bit counter with overflow bad state
1 sort bitvec 2
2 sort bitvec 1
3 zero 1
4 state 1 cnt
5 init 1 4 3
6 one 1
7 add 1 4 6
8 next 1 4 7
9 constd 1 3
10 eq 2 4 9
11 bad 10 overflowed
`

func TestParseCounter(t *testing.T) {
	d, err := Parse(strings.NewReader(counterModel))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bads) != 1 || d.Bads[0] != "overflowed" {
		t.Fatalf("bads = %v", d.Bads)
	}
	sim := circuit.NewSim(d.Circuit)
	for i := 0; i < 3; i++ {
		if v, _ := sim.PeekWire("overflowed"); v != 0 {
			t.Fatalf("cycle %d: premature bad", i)
		}
		sim.Step(nil)
	}
	if v, _ := sim.PeekWire("overflowed"); v != 1 {
		t.Fatal("bad state not reached at cnt==3")
	}
	if v, _ := sim.PeekReg("cnt"); v != 3 {
		t.Fatalf("cnt = %d, want 3", v)
	}
}

func TestParseAllOperators(t *testing.T) {
	model := `
1 sort bitvec 4
2 sort bitvec 1
3 input 1 a
4 input 1 b
5 input 2 c
6 not 1 3
7 inc 1 3
8 dec 1 3
9 neg 1 3
10 redor 2 3
11 redand 2 3
12 redxor 2 3
13 uext 1 10 3
14 sext 1 10 3
15 slice 2 3 2 2
16 and 1 3 4
17 nand 1 3 4
18 or 1 3 4
19 nor 1 3 4
20 xor 1 3 4
21 xnor 1 3 4
22 implies 2 10 11
23 iff 2 10 11
24 eq 2 3 4
25 neq 2 3 4
26 ult 2 3 4
27 ulte 2 3 4
28 ugt 2 3 4
29 ugte 2 3 4
30 slt 2 3 4
31 slte 2 3 4
32 sgt 2 3 4
33 sgte 2 3 4
34 add 1 3 4
35 sub 1 3 4
36 mul 1 3 4
37 sll 1 3 4
38 srl 1 3 4
39 sra 1 3 4
40 concat 1 15 15
41 ite 1 5 3 4
42 output 34 sum
43 output 41 sel
44 output -3 nota
45 consth 1 f
46 constd 1 -1
47 const 1 1010
48 output 45 allones
`
	d, err := Parse(strings.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	sim := circuit.NewSim(d.Circuit)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		a, b, c := rng.Uint64()&15, rng.Uint64()&15, rng.Uint64()&1
		sim.SetInputs(circuit.Inputs{"a": a, "b": b, "c": c})
		if v, _ := sim.PeekWire("sum"); v != (a+b)&15 {
			t.Fatalf("sum(%d,%d) = %d", a, b, v)
		}
		want := b
		if c == 1 {
			want = a
		}
		if v, _ := sim.PeekWire("sel"); v != want {
			t.Fatalf("ite = %d, want %d", v, want)
		}
		if v, _ := sim.PeekWire("nota"); v != ^a&15 {
			t.Fatalf("not = %d", v)
		}
		if v, _ := sim.PeekWire("allones"); v != 15 {
			t.Fatalf("consth f = %d", v)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad id":            "x sort bitvec 1\n",
		"missing op":        "1\n",
		"array sort":        "1 sort array 2 2\n",
		"bad width":         "1 sort bitvec 99\n",
		"unknown sort kind": "1 sort foo\n",
		"undefined sort":    "1 input 7\n",
		"undefined operand": "1 sort bitvec 1\n2 not 1 9\n",
		"unsupported op":    "1 sort bitvec 4\n2 input 1\n3 udiv 1 2 2\n",
		"next non-state":    "1 sort bitvec 1\n2 input 1\n3 next 1 2 2\n",
		"nonconst init":     "1 sort bitvec 1\n2 input 1\n3 state 1 s\n4 init 1 3 2\n5 next 1 3 3\n",
		"missing next":      "1 sort bitvec 1\n2 state 1 s\n",
		"bad slice":         "1 sort bitvec 2\n2 input 1\n3 slice 1 2 9 0\n",
	}
	for name, model := range cases {
		if _, err := Parse(strings.NewReader(model)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseUninitializedStateDefaultsZero(t *testing.T) {
	d, err := Parse(strings.NewReader("1 sort bitvec 3\n2 state 1 s\n3 next 1 2 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	sim := circuit.NewSim(d.Circuit)
	if v, _ := sim.PeekReg("s"); v != 0 {
		t.Fatalf("uninitialized state = %d, want 0", v)
	}
}

// TestWriteParseRoundTrip builds a circuit, exports it to btor2, re-parses
// it, and checks both circuits simulate identically on random stimulus.
func TestWriteParseRoundTrip(t *testing.T) {
	b := circuit.NewBuilder()
	in := b.Input("in", 6)
	x := b.Register("x", 6, 5)
	y := b.Register("y", 6, 0)
	b.SetNext("x", b.Add(x, in))
	b.SetNext("y", b.MuxW(b.Ult(y, x), x, b.XorW(y, in)))
	b.Name("prop", circuit.Word{b.Eq(x, y)})
	b.Name("out", b.OrW(x, y))
	c1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Write(&buf, c1, []string{"prop"}, nil); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
	}
	if len(d2.Bads) != 1 {
		t.Fatalf("bads = %v", d2.Bads)
	}

	sim1 := circuit.NewSim(c1)
	sim2 := circuit.NewSim(d2.Circuit)
	rng := rand.New(rand.NewSource(11))
	for cycle := 0; cycle < 50; cycle++ {
		iv := rng.Uint64() & 63
		v1, _ := sim1.PeekReg("x")
		// Bit-blasted registers are named x[i] in the round-tripped design.
		var v2 uint64
		for bit := 0; bit < 6; bit++ {
			bv, err := sim2.PeekReg("x[" + string(rune('0'+bit)) + "]")
			if err != nil {
				t.Fatal(err)
			}
			v2 |= bv << uint(bit)
		}
		if v1 != v2 {
			t.Fatalf("cycle %d: x diverged %d vs %d", cycle, v1, v2)
		}
		p1, _ := sim1.PeekWire("prop")
		sim2.SetInputs(nil)
		p2, _ := sim2.PeekWire("prop")
		_ = p2
		if p1 != p2 {
			t.Fatalf("cycle %d: prop diverged", cycle)
		}
		// Drive the bit-blasted input.
		in2 := circuit.Inputs{}
		for bit := 0; bit < 6; bit++ {
			in2["in["+string(rune('0'+bit))+"]"] = (iv >> uint(bit)) & 1
		}
		sim1.Step(circuit.Inputs{"in": iv})
		sim2.Step(in2)
	}
}

func TestParseComments(t *testing.T) {
	model := "; leading comment\n1 sort bitvec 1 ; trailing\n\n2 input 1 x\n"
	if _, err := Parse(strings.NewReader(model)); err != nil {
		t.Fatal(err)
	}
}

func TestParseFromReaderError(t *testing.T) {
	if _, err := Parse(strings.NewReader("1 sort bitvec 1\n2 state 1\n")); err == nil {
		t.Fatal("state without next must fail Build")
	}
}
