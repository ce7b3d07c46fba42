package telemetry

import (
	"bytes"
	"fmt"
	"testing"
)

// populateMetrics fills a registry with a spread of metric kinds. order
// permutes the registration sequence so the test can assert that export
// bytes do not depend on map insertion (and hence iteration) history.
func populateMetrics(reg *Registry, order []int) {
	for _, i := range order {
		name := fmt.Sprintf("metric_%02d_total", i)
		reg.Counter(name).Add(int64(100 + i))
		reg.Gauge(fmt.Sprintf("gauge_%02d", i)).Set(float64(i) * 1.5)
		h := reg.Histogram(fmt.Sprintf("latency_%02d_ns", i))
		for v := 0; v < 5; v++ {
			h.Observe(float64(1000 * (v + i + 1)))
		}
	}
	reg.Counter(`evictions_total{policy="HEEB"}`).Add(7)
	reg.Counter(`evictions_total{policy="RAND"}`).Add(3)
}

// TestExportByteIdentical holds the export path to map-order independence:
// repeated Prometheus and JSON exports of the same registry must be
// byte-identical, and registries populated in different insertion orders
// must export identical bytes. A map-order dependent export loop would fail
// this within a few repetitions (Go randomizes map iteration per range
// statement).
func TestExportByteIdentical(t *testing.T) {
	forward := []int{0, 1, 2, 3, 4, 5, 6, 7}
	reverse := []int{7, 6, 5, 4, 3, 2, 1, 0}

	regA := NewRegistry()
	populateMetrics(regA, forward)
	regB := NewRegistry()
	populateMetrics(regB, reverse)

	export := func(reg *Registry) (prom, js string) {
		var pb, jb bytes.Buffer
		reg.WritePrometheus(&pb)
		if err := reg.WriteJSON(&jb); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return pb.String(), jb.String()
	}

	promA, jsA := export(regA)
	if promA == "" || jsA == "" {
		t.Fatal("empty export")
	}
	for i := 0; i < 10; i++ {
		prom, js := export(regA)
		if prom != promA {
			t.Fatalf("Prometheus export differs between repeats (iteration %d):\nfirst:\n%s\nnow:\n%s", i, promA, prom)
		}
		if js != jsA {
			t.Fatalf("JSON export differs between repeats (iteration %d)", i)
		}
	}

	promB, jsB := export(regB)
	if promB != promA {
		t.Fatalf("Prometheus export depends on registration order:\nforward:\n%s\nreverse:\n%s", promA, promB)
	}
	if jsB != jsA {
		t.Fatal("JSON export depends on registration order")
	}
}
