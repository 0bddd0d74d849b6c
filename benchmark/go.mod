module hbsp/benchmark

go 1.24

require hbsp v0.0.0

replace hbsp => ../
