package appia

// Poisoning exposes the race build's switch to the external tests.
const Poisoning = poisoning
