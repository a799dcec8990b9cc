package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1_000_000*Picosecond {
		t.Fatalf("Microsecond = %d ps, want 1e6", int64(Microsecond))
	}
	if got := (2500 * Nanosecond).Us(); got != 2.5 {
		t.Errorf("2500ns = %vus, want 2.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{5 * Picosecond, "5ps"},
		{2 * Microsecond, "2.00us"},
		{150 * Microsecond, "150.0us"},
		{3 * Millisecond, "3.00ms"},
		{12 * Second, "12.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d ps).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestMaxMinTime(t *testing.T) {
	if MaxTime(1, 2) != 2 || MaxTime(2, 1) != 2 {
		t.Error("MaxTime broken")
	}
}

func TestProfilesValidate(t *testing.T) {
	for name, mk := range Profiles() {
		m := mk()
		if err := m.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
		if m.Name != name {
			t.Errorf("profile registered as %q names itself %q", name, m.Name)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CostModel)
	}{
		{"negative net beta", func(m *CostModel) { m.NetBetaPsPerByte = -1 }},
		{"negative alpha", func(m *CostModel) { m.ShmAlpha = -Nanosecond }},
		{"zero saturation", func(m *CostModel) { m.MemSaturation = 0 }},
		{"zero flops", func(m *CostModel) { m.FlopsPerSecond = 0 }},
		{"negative eager", func(m *CostModel) { m.EagerLimit = -1 }},
	}
	for _, c := range cases {
		m := Laptop()
		c.mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken model", c.name)
		}
	}
	var nilModel *CostModel
	if err := nilModel.Validate(); err == nil {
		t.Error("Validate accepted nil model")
	}
}

func TestHopClassOrdering(t *testing.T) {
	// The whole reproduction rests on shm hops being cheaper than net
	// hops, and memory copies being cheaper than shm transfers.
	for name, mk := range Profiles() {
		m := mk()
		const n = 4096
		if m.XferCost(HopShm, n) >= m.XferCost(HopNet, n) {
			t.Errorf("%s: shm transfer not cheaper than net", name)
		}
		if m.CopyCost(n, 1) >= m.XferCost(HopShm, n) {
			t.Errorf("%s: local copy not cheaper than shm transfer", name)
		}
	}
}

func TestXferCostLinear(t *testing.T) {
	m := HazelHenCray()
	base := m.XferCost(HopNet, 0)
	if base != m.NetAlpha {
		t.Fatalf("zero-byte transfer = %v, want alpha %v", base, m.NetAlpha)
	}
	c1 := m.XferCost(HopNet, 1000)
	c2 := m.XferCost(HopNet, 2000)
	if c2-c1 != c1-base {
		t.Errorf("transfer cost not linear: %v %v %v", base, c1, c2)
	}
	if m.XferCost(HopNet, -5) != base {
		t.Errorf("negative sizes should clamp to alpha")
	}
}

func TestCopyCostContention(t *testing.T) {
	m := HazelHenCray()
	const n = 1 << 20
	flat := m.CopyCost(n, 1)
	if m.CopyCost(n, m.MemSaturation) != flat {
		t.Errorf("copy cost should stay flat up to saturation")
	}
	over := m.CopyCost(n, 2*m.MemSaturation)
	if over <= flat {
		t.Errorf("copy cost should grow past saturation: %v <= %v", over, flat)
	}
	if m.CopyCost(0, 1) != m.MemAlpha {
		t.Errorf("zero-byte copy should cost MemAlpha")
	}
	if m.CopyCost(n, 0) != flat {
		t.Errorf("concurrency 0 should clamp to 1")
	}
}

func TestComputeCost(t *testing.T) {
	m := HazelHenCray()
	if m.ComputeCost(0) != 0 || m.ComputeCost(-10) != 0 {
		t.Error("non-positive flops should cost zero")
	}
	// One second worth of flops should cost one virtual second.
	if got := m.ComputeCost(m.FlopsPerSecond); got != Second {
		t.Errorf("ComputeCost(rate) = %v, want 1s", got)
	}
}

func TestCopyCostMonotone(t *testing.T) {
	m := VulcanOpenMPI()
	f := func(a, b uint16, conc uint8) bool {
		n1, n2 := int(a), int(a)+int(b)
		c := int(conc%16) + 1
		return m.CopyCost(n1, c) <= m.CopyCost(n2, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXferCostMonotoneInSizeAndClass(t *testing.T) {
	m := HazelHenCray()
	f := func(a, b uint16) bool {
		n1, n2 := int(a), int(a)+int(b)
		for _, class := range []HopClass{HopSelf, HopShm, HopNet} {
			if m.XferCost(class, n1) > m.XferCost(class, n2) {
				return false
			}
		}
		return m.XferCost(HopShm, n1) <= m.XferCost(HopNet, n1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopologyUniform(t *testing.T) {
	topo := MustUniform(4, 6)
	if topo.Size() != 24 || topo.Groups(topo.NodeLevel()) != 4 {
		t.Fatalf("4x6 topology: size=%d nodes=%d", topo.Size(), topo.Groups(topo.NodeLevel()))
	}
	for r := 0; r < topo.Size(); r++ {
		if got, want := topo.NodeOf(r), r/6; got != want {
			t.Errorf("NodeOf(%d) = %d, want %d", r, got, want)
		}
	}
	if topo.String() != "4x6" {
		t.Errorf("String() = %q", topo.String())
	}
}

func TestTopologyIrregular(t *testing.T) {
	topo, err := NewTopology([]int{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Size() != 6 {
		t.Fatalf("size = %d, want 6", topo.Size())
	}
	wantNode := []int{0, 0, 0, 1, 2, 2}
	for r := range wantNode {
		if topo.NodeOf(r) != wantNode[r] {
			t.Errorf("rank %d: node=%d, want %d", r, topo.NodeOf(r), wantNode[r])
		}
	}
	if !strings.Contains(topo.String(), "3 nodes") {
		t.Errorf("String() = %q", topo.String())
	}
}

func TestTopologyHop(t *testing.T) {
	topo := MustUniform(2, 2)
	if topo.Hop(0, 0) != HopSelf {
		t.Error("self hop misclassified")
	}
	if topo.Hop(0, 1) != HopShm {
		t.Error("intra-node hop misclassified")
	}
	if topo.Hop(1, 2) != HopNet {
		t.Error("inter-node hop misclassified")
	}
}

func TestTopologyErrors(t *testing.T) {
	if _, err := NewTopology(nil); err == nil {
		t.Error("empty topology accepted")
	}
	if _, err := NewTopology([]int{2, 0}); err == nil {
		t.Error("zero-rank node accepted")
	}
	if _, err := Uniform(0, 4); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := Uniform(4, -1); err == nil {
		t.Error("negative ppn accepted")
	}
}

func TestHopClassString(t *testing.T) {
	if HopSelf.String() != "self" || HopShm.String() != "shm" || HopNet.String() != "net" {
		t.Error("hop class names wrong")
	}
	if !strings.Contains(HopClass(99).String(), "99") {
		t.Error("unknown hop class should include its number")
	}
}

func TestTracer(t *testing.T) {
	tr := NewTracer()
	if !tr.Enabled() {
		t.Fatal("new tracer should be enabled")
	}
	// Insert out of order; Events must sort by time.
	tr.Record(Event{At: 30, Rank: 1, Kind: "recv", Bytes: 8})
	tr.Record(Event{At: 10, Rank: 0, Kind: "send", Bytes: 8})
	tr.Record(Event{At: 30, Rank: 0, Kind: "copy", Bytes: 4})
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].At != 10 || ev[1].Rank != 0 || ev[2].Rank != 1 {
		t.Errorf("events not sorted: %+v", ev)
	}
}

func TestTracerNilAndDisabled(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{}) // must not panic
	if tr.Enabled() {
		t.Error("nil tracer enabled")
	}
	if tr.Events() != nil {
		t.Error("nil tracer has events")
	}

	var off Tracer // zero value records nothing
	off.Record(Event{At: 1})
	if len(off.Events()) != 0 {
		t.Error("zero-value tracer recorded an event")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 100; i++ {
				tr.Record(Event{At: Time(r.Intn(1000)), Rank: g})
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := len(tr.Events()); got != 800 {
		t.Errorf("got %d events, want 800", got)
	}
}
