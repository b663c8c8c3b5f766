package main

import (
	"math"
	"slices"
	"strconv"
	"time"
)

// The machine the benchmark runs on is shared, and its speed drifts: the
// same single-threaded loop takes 20 to 50% longer for seconds or minutes
// at a time, with no steal time visible. Timings taken minutes apart are
// therefore not comparable as they stand. So the benchmark times a fixed
// calibration kernel between short stretches of measurement, while the
// program under test is idle, and converts every timing of a stretch into
// reference time: the time it would have taken on a machine where the
// kernel takes refKernelMS. The end-to-end timings and rates are reported
// in reference time; machine.kernel_ms reports the kernel's median time in
// the run, so raw time is timing × machine.kernel_ms / refKernelMS.

// refKernelMS is the kernel's time on the benchmark's machine when it runs
// at full speed (bench/README.md names the machine), so on that machine
// reference time and raw time agree when it is not slowed.
const refKernelMS = 1.2

// kernelReps is how many kernel runs one calibration takes the median of.
const kernelReps = 3

// kernel is the calibration workload: parsing decimal numbers, hashing them
// into a map, sorting them, and a random walk over a 4 MB table, so that it
// slows with the core and with the caches as the program's own work does.
// It allocates nothing after its first run, so it neither causes nor waits
// for garbage collection.
type kernel struct {
	tokens []string
	vals   []float64
	sums   map[int]float64
	table  []uint32
	sink   float64
}

func newKernel() *kernel {
	k := &kernel{tokens: make([]string, 2000), sums: make(map[int]float64), table: make([]uint32, 1<<20)}
	x := uint64(1)
	for i := range k.tokens {
		x = splitmix64(x)
		k.tokens[i] = strconv.FormatFloat(unitFloat(x)*1000, 'g', -1, 64)
	}
	k.vals = make([]float64, len(k.tokens))
	k.run()
	return k
}

// run executes the kernel once and returns its time in ms.
func (k *kernel) run() float64 {
	start := time.Now()
	clear(k.sums)
	for i, tok := range k.tokens {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			panic(err) // the tokens are formatted floats
		}
		k.vals[i] = v
		k.sums[i%97] += v
	}
	slices.Sort(k.vals)
	mask := uint32(len(k.table) - 1)
	x, s := uint32(1), uint32(0)
	for i := 0; i < 400_000; i++ {
		x = x*1664525 + 1013904223
		j := x & mask
		s += k.table[j]
		k.table[j] = s
	}
	k.sink += k.vals[len(k.vals)/2] + k.sums[0] + float64(s)
	return ms(time.Since(start))
}

// calibrate returns the median of kernelReps kernel runs, in ms.
func (k *kernel) calibrate() float64 {
	var t [kernelReps]float64
	for i := range t {
		t[i] = k.run()
	}
	slices.Sort(t[:])
	return t[kernelReps/2]
}

// meter converts stretches of measurement into reference time.
type meter struct {
	k    *kernel
	last float64   // the latest calibration, ms
	all  []float64 // every calibration of the run, ms
}

func newMeter() *meter {
	m := &meter{k: newKernel()}
	m.calibrate()
	return m
}

func (m *meter) calibrate() float64 {
	m.last = m.k.calibrate()
	m.all = append(m.all, m.last)
	return m.last
}

// stretch measures fn, calibrating after it, and returns the factor that
// converts its timings into reference time: refKernelMS over the mean of
// the calibrations that bracket it.
func (m *meter) stretch(fn func()) float64 {
	before := m.last
	fn()
	return refKernelMS / ((before + m.calibrate()) / 2)
}

// chunks splits dur into stretches of about length each.
func chunks(dur, length time.Duration) (int, time.Duration) {
	n := max(1, int(math.Round(float64(dur)/float64(length))))
	return n, dur / time.Duration(n)
}
