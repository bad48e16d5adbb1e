module github.com/alcstm/alc/benchmark

go 1.24

require github.com/alcstm/alc v0.0.0

replace github.com/alcstm/alc => ../
