package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
)

// calibrationRef is the calibration's CPU time, in seconds, on the
// reference machine the calibrated metrics are expressed in.
const calibrationRef = 0.05

// calibrated rescales a CPU time measured next to a calibration run that
// took cal seconds to the reference machine's speed.
func calibrated(x, cal float64) float64 { return x * calibrationRef / cal }

type calNode struct {
	key  string
	val  int
	next *calNode
}

var calSink int

// calibrate runs a fixed mix of the work the program's hot paths do —
// small allocations, map inserts and lookups, sorting, pointer chasing —
// and returns its CPU seconds. It is the benchmark's own code. It runs
// with the garbage collector off, so the heap the program's operation
// left behind (caches, pooled heaps, a server's finished jobs) is never
// marked during the loop and cannot move its time.
func calibrate() float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c0 := cpuSeconds()
	for rep := 0; rep < 3; rep++ {
		m := make(map[string]int)
		var head *calNode
		list := make([]*calNode, 0, 1024)
		for i := 0; i < 20000; i++ {
			n := &calNode{key: strconv.Itoa(i * 7919 % 100003), val: i, next: head}
			head = n
			m[n.key] = i
			list = append(list, n)
		}
		sort.Slice(list, func(a, b int) bool { return list[a].key < list[b].key })
		sum := 0
		for n := head; n != nil; n = n.next {
			sum += m[n.key]
		}
		calSink += sum
	}
	return cpuSeconds() - c0
}
