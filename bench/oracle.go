package main

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/row"
)

// answer is an order-independent digest of a result set: the row count, a
// wrapping sum of per-row hashes over the non-float cells, and a weighted
// sum of the float cells. Floats are kept out of the hash because the
// engine adds partial sums in a different order than a sequential loop;
// the per-row weight ties each float to its row's key, so a sum credited
// to the wrong group still shows.
type answer struct {
	rows int
	hash uint64
	fsum float64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// add folds one result row into the digest. Cells are hashed in their SQL
// text form (row.FormatValue), so engine rows, server reply strings and
// the oracle's Go values agree.
func (a *answer) add(cells ...any) {
	h := uint64(fnvOffset)
	var buf [24]byte
	for _, c := range cells {
		var text []byte
		switch x := c.(type) {
		case float64:
			continue
		case string:
			for i := 0; i < len(x); i++ {
				h = (h ^ uint64(x[i])) * fnvPrime
			}
		case int32:
			text = strconv.AppendInt(buf[:0], int64(x), 10)
		case int64:
			text = strconv.AppendInt(buf[:0], x, 10)
		case int:
			text = strconv.AppendInt(buf[:0], int64(x), 10)
		default:
			text = []byte(row.FormatValue(c))
		}
		for _, b := range text {
			h = (h ^ uint64(b)) * fnvPrime
		}
		h = (h ^ 0x1f) * fnvPrime // cell boundary
	}
	a.rows++
	a.hash += h
	w := float64(h%1021 + 1)
	for j, c := range cells {
		if f, ok := c.(float64); ok {
			a.fsum += w * float64(j+1) * f
		}
	}
}

func (a answer) equal(b answer) bool {
	tol := 1e-9 * math.Max(1, math.Abs(a.fsum))
	return a.rows == b.rows && a.hash == b.hash && math.Abs(a.fsum-b.fsum) <= tol
}

func digestRows(rows []row.Row) answer {
	var a answer
	for _, r := range rows {
		a.add(r...)
	}
	return a
}

// stmt is one SQL statement with the answer the oracle computed for it.
type stmt struct {
	sql  string
	want answer
	// asc is a column that must come back in non-decreasing order, or -1
	// when any order is a correct answer.
	asc int
}

func (s stmt) check(rows []row.Row) error {
	if got := digestRows(rows); !got.equal(s.want) {
		return fmt.Errorf("wrong answer for %.60q: got %d rows (hash %x, fsum %g), want %d rows (hash %x, fsum %g)",
			s.sql, got.rows, got.hash, got.fsum, s.want.rows, s.want.hash, s.want.fsum)
	}
	if s.asc >= 0 {
		for i := 1; i < len(rows); i++ {
			if row.Compare(rows[i-1][s.asc], rows[i][s.asc]) > 0 {
				return fmt.Errorf("wrong order for %.60q at row %d", s.sql, i)
			}
		}
	}
	return nil
}

// splitmix is the harness's own generator for values datagen does not
// cover (the store workloads' rows, statement literals): one 64-bit value
// per (seed, index), like datagen's.
func splitmix(seed, i uint64) uint64 {
	x := seed ^ (i+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
