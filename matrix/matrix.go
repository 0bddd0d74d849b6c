// Package matrix is the public surface of the dense float64 and boolean
// matrix toolkit the framework's models are phrased in: parameter matrices
// (collective.Params) and the cost-model outputs use these types, and a Bool
// writes a collective stage as the thesis does — for reading and checking a
// schedule; collective.Pattern holds its stages as edge lists.
package matrix

import "hbsp/internal/matrix"

// Dense is a dense row-major float64 matrix.
type Dense = matrix.Dense

// Bool is a dense boolean matrix, the thesis' notation for collective stage
// incidence.
type Bool = matrix.Bool

// NewDense returns a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense { return matrix.NewDense(rows, cols) }

// NewDenseFrom builds a matrix from row slices.
func NewDenseFrom(rows [][]float64) (*Dense, error) { return matrix.NewDenseFrom(rows) }

// MustDense builds a matrix from row slices and panics on shape errors.
func MustDense(rows [][]float64) *Dense { return matrix.MustDense(rows) }

// NewBool returns a zeroed rows×cols boolean matrix.
func NewBool(rows, cols int) *Bool { return matrix.NewBool(rows, cols) }

// NewBoolFrom builds a boolean matrix from 0/1 row slices.
func NewBoolFrom(rows [][]int) (*Bool, error) { return matrix.NewBoolFrom(rows) }

// MustBool builds a boolean matrix from 0/1 row slices and panics on shape
// errors.
func MustBool(rows [][]int) *Bool { return matrix.MustBool(rows) }

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense { return matrix.Identity(n) }

// Ones returns the all-ones vector of length n.
func Ones(n int) []float64 { return matrix.Ones(n) }
