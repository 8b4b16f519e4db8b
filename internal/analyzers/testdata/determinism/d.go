// Package determinism is analyzer test input: every construct the
// determinism analyzer must flag, waive, or ignore.
package determinism

import (
	"fmt"
	"math/rand" // want "use a seeded, explicitly threaded source"
	"sort"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want "call to time.Now: wall-clock reads are nondeterministic"
	return time.Since(start) // want "call to time.Since: wall-clock reads are nondeterministic"
}

func waived() time.Time {
	//cogdiff:allow-nondeterminism trace timestamps never reach a report
	return time.Now()
}

func waivedSameLine() time.Time {
	return time.Now() //cogdiff:allow-nondeterminism trace timestamps never reach a report
}

func waiverWithoutReason() time.Time {
	//cogdiff:allow-nondeterminism
	return time.Now() // want "allow-nondeterminism directive without a reason"
}

func emittingMapRange(m map[string]int) {
	for k, v := range m { // want "map range emits output in iteration order"
		fmt.Println(k, v)
	}
}

func collectAndSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // ordered downstream by the caller's sort: not flagged
		keys = append(keys, k)
	}
	return keys
}

func firstErrorInMapOrder(m map[string]int) error {
	for k, v := range m { // want "map range emits output in iteration order"
		if v < 0 {
			return fmt.Errorf("negative %q", k)
		}
	}
	return nil
}

func firstErrorInSortedOrder(m map[string]int) error {
	keys := make([]string, 0, len(m))
	for k := range m { // collected, then sorted: not flagged
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if m[k] < 0 {
			return fmt.Errorf("negative %q", k)
		}
	}
	return nil
}

func firstMessageInMapOrder(m map[int][]string, got map[int][]string) (bool, string) {
	for k, v := range m { // want "map range emits output in iteration order"
		if len(got[k]) != len(v) {
			return true, fmt.Sprintf("object %d differs", k)
		}
	}
	return false, ""
}

func firstMessageInSortedOrder(m map[int][]string, got map[int][]string) (bool, string) {
	keys := make([]int, 0, len(m))
	for k := range m { // collected, then sorted: not flagged
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if len(got[k]) != len(m[k]) {
			return true, fmt.Sprintf("object %d differs", k)
		}
	}
	return false, ""
}

func sliceRange(xs []int) {
	for _, x := range xs { // slices iterate in order: not flagged
		fmt.Println(x)
	}
}

func seeded() int {
	return rand.Intn(10)
}
