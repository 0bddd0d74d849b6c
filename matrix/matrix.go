// Package matrix is the public surface of the dense float64 matrix the
// framework's models are phrased in: parameter matrices (collective.Params)
// and the cost-model outputs use this type.
package matrix

import "hbsp/internal/matrix"

// Dense is a dense row-major float64 matrix.
type Dense = matrix.Dense

// NewDense returns a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense { return matrix.NewDense(rows, cols) }
