module morpheus/bench

go 1.24

require morpheus v0.0.0

replace morpheus => ../
