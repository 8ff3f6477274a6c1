package fanout

import (
	"fmt"
	"testing"
)

// TestForEachErrReturnsLowestIndex checks that the reported error is the
// lowest-indexed failure at every worker count, and that every task still
// runs after an earlier one failed.
func TestForEachErrReturnsLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		ran := make([]bool, 10)
		err := ForEachErr(workers, len(ran), func(i int) error {
			ran[i] = true
			if i == 4 || i == 7 {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 4" {
			t.Fatalf("workers %d: err = %v, want task 4", workers, err)
		}
		for i, ok := range ran {
			if !ok {
				t.Fatalf("workers %d: task %d never ran", workers, i)
			}
		}
	}
}
