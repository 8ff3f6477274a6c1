package cluster

import (
	"fmt"
	"testing"
)

// BenchmarkPlace times one Place+Release cycle on a half-full synthetic
// fleet across node counts.
func BenchmarkPlace(b *testing.B) {
	for _, nodes := range []int{8, 64, 256, 1024} {
		b.Run(fmt.Sprintf("indexed/nodes=%d", nodes), func(b *testing.B) {
			c := Synthetic(WorstFit, nodes, 7)
			// Fill to ~50% so fit checks exercise realistic fragmentation
			// rather than an empty fleet.
			sizes := []float64{1, 2, 4, 8}
			for i := 0; c.TotalUsed() < 0.5*c.TotalCapacity(); i++ {
				if _, err := c.Place(sizes[i%len(sizes)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := c.Place(sizes[i%len(sizes)])
				if err != nil {
					b.Fatal(err)
				}
				c.Release(p)
			}
		})
	}
}

// BenchmarkSetDown times the node failure/recovery lifecycle on a loaded
// fleet: the index maintenance cost of draining and restoring a node.
func BenchmarkSetDown(b *testing.B) {
	for _, nodes := range []int{8, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			c := Synthetic(WorstFit, nodes, 7)
			for c.TotalUsed() < 0.5*c.TotalCapacity() {
				if _, err := c.Place(4); err != nil {
					b.Fatal(err)
				}
			}
			n := c.nodes[nodes/2]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.SetDown(true)
				n.SetDown(false)
			}
		})
	}
}
