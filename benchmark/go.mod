module incod/benchmark

go 1.24

require incod v0.0.0

replace incod => ../
